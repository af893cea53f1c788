"""Content-addressed caching of trained model parameters.

Training the energy network is deterministic: the weights are a pure
function of (training features, training targets, hyper-parameters,
seed).  That makes trained models cacheable in the same content-addressed
:class:`~repro.campaign.store.ResultStore` that already holds simulation
results — keyed by the dataset digest and the full
:class:`~repro.modeling.training.TrainingConfig`, so a cache hit is
guaranteed to be bit-identical to retraining (JSON round-trips float64
exactly via shortest-repr).

The LOOCV study retrains one model per held-out benchmark and the bench
harness retrains the deployed model every session; with this cache, warm
sessions rebuild every model from disk without a single ADAM step.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign.store import ResultStore, job_key
from repro.errors import CampaignError, ModelError
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.modeling.training import TrainedModel, TrainingConfig, train_network

#: Keys every cached model payload must carry; anything less was written
#: by an older schema and must not be silently rebuilt into a model.
MODEL_PAYLOAD_KEYS: tuple[str, ...] = ("network", "scaler", "losses")


def dataset_digest(features: np.ndarray, targets: np.ndarray) -> str:
    """Content hash of a training set (shape- and byte-exact)."""
    features = np.ascontiguousarray(np.asarray(features, dtype=float))
    targets = np.ascontiguousarray(np.asarray(targets, dtype=float))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(features.shape).encode())
    h.update(features.tobytes())
    h.update(repr(targets.shape).encode())
    h.update(targets.tobytes())
    return h.hexdigest()


def training_descriptor(digest: str, config: TrainingConfig) -> dict[str, Any]:
    """The store descriptor for one training run (hashed into its key)."""
    return {
        "mode": "train-model",
        "dataset": digest,
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "batch_size": config.batch_size,
        "seed": config.seed,
    }


def model_to_payload(model: TrainedModel) -> dict[str, Any]:
    """JSON-able parameters of a trained model (store record layout)."""
    return {
        "network": model.network.to_dict(),
        "scaler": model.scaler.to_dict(),
        "losses": list(model.losses),
    }


def model_from_payload(payload: dict[str, Any]) -> TrainedModel:
    """Rebuild a trained model from its cached parameters.

    Raises a clear :class:`~repro.errors.ModelError` when the payload
    does not match the current schema (e.g. an entry persisted by an
    older store layout) instead of a raw ``KeyError`` — including when
    only the *inner* network/scaler layout is outdated.
    """
    missing = [k for k in MODEL_PAYLOAD_KEYS if k not in payload]
    if missing:
        raise ModelError(
            f"cached model payload is missing keys {missing}: the entry "
            "was produced by an older store schema; delete the store "
            "file to retrain"
        )
    try:
        return TrainedModel(
            network=EnergyNetwork.from_dict(payload["network"]),
            scaler=StandardScaler.from_dict(payload["scaler"]),
            losses=[float(v) for v in payload["losses"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelError(
            f"cached model payload does not match the current parameter "
            f"layout ({exc!r}): the entry was produced by an older store "
            "schema; delete the store file to retrain"
        ) from None


def train_network_cached(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    config: TrainingConfig = TrainingConfig(),
    store: ResultStore | str | Path | None = None,
) -> TrainedModel:
    """Train, or recall bit-identical weights from the result store.

    With ``store=None`` this is exactly :func:`train_network`.  A path
    (any store backend — JSONL or SQLite) is opened
    for the duration of the call and closed afterwards; an open
    :class:`ResultStore` is used as-is and left open.
    """
    if store is None:
        return train_network(features, targets, config=config)
    if not isinstance(store, ResultStore):
        with ResultStore(store) as opened:
            return train_network_cached(
                features, targets, config=config, store=opened
            )
    descriptor = training_descriptor(dataset_digest(features, targets), config)
    key = job_key(descriptor)
    cached = store.get(key)
    if cached is not None:
        try:
            return model_from_payload(cached)
        except ModelError as exc:
            # A recalled entry whose payload layout is stale is a store
            # problem, not a modelling one: surface the campaign error
            # the rest of the cache layer documents, naming the file.
            where = store.path if store.path is not None else "<in-memory store>"
            raise CampaignError(f"{exc} (store: {where})") from None
    model = train_network(features, targets, config=config)
    store.put(key, descriptor, model_to_payload(model))
    return model

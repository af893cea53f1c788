"""``design-time``: the design-time analysis (DTA) a user runs before
tuning, wired as ``benchmarks/_common.py`` wires it.

One pass: a fresh SQLite ``ResultStore`` under a default-sized
``CampaignEngine``; ``build_dataset`` over all 19 benchmarks;
``train_network_cached`` (10 epochs, seed 0) on the 14 training
benchmarks; ``PeriscopeTuningFramework.tune`` for the five evaluation
benchmarks.  Every pass uses the workload seed, so each pass is checked
against one serial reference pass (``CampaignEngine(max_workers=0)``,
no store): dataset digest, trained-weights digest and every emitted
tuning-model JSON must be byte-equal.
"""

from __future__ import annotations

import hashlib
import json

from perfbench.common import WARM_SEED_OFFSET, run_passes, work_dir

TUNED = ("Amg2013", "Lulesh", "Mcb", "miniMD", "BEM4I")
EPOCHS = 10
CLUSTER_NODES = 8


class DesignTime:
    name = "design-time"
    op_name = "DTA pass"
    pass_label = "design_s"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Import the modelling, campaign and PTF stacks, build every
        registry application and run a token DTA (one benchmark's
        dataset, serially, one epoch, one tuning) at a seed no pass
        uses."""
        from repro.workloads import registry

        registry.build_all()
        self.dta(self.seed + WARM_SEED_OFFSET, benchmarks=("EP",),
                 training=("EP",), tuned=("EP",), epochs=1, serial=True)

    def dta(self, seed: int, *, benchmarks=None, training=None,
            tuned=TUNED, epochs: int = EPOCHS, serial: bool = False,
            store_dir=None) -> dict[str, str]:
        """One DTA pass; returns output name -> digest.

        ``serial=True`` is the reference arm: in-process execution, no
        store.  Otherwise a fresh SQLite store in ``store_dir`` sits
        under a default-sized engine.
        """
        from repro.campaign.engine import CampaignEngine
        from repro.campaign.store import ResultStore
        from repro.hardware.cluster import Cluster
        from repro.modeling import dataset, model_cache
        from repro.modeling.training import TrainingConfig
        from repro.ptf.framework import PeriscopeTuningFramework
        from repro.workloads import registry

        benchmarks = benchmarks or registry.benchmark_names()
        training = training or registry.training_benchmarks()
        store = (
            None if serial
            else ResultStore(store_dir / "dta.sqlite", backend="sqlite")
        )
        try:
            engine = (
                CampaignEngine(max_workers=0) if serial
                else CampaignEngine(store=store)
            )
            cluster = Cluster(CLUSTER_NODES, seed=seed)
            data = dataset.build_dataset(
                benchmarks, cluster=cluster, seed=seed, engine=engine
            )
            train = data.subset(training)
            model = model_cache.train_network_cached(
                train.features, train.targets,
                config=TrainingConfig(epochs=epochs, seed=0), store=store,
            )
            framework = PeriscopeTuningFramework(cluster, model, seed=seed)
            out = {
                "dataset": model_cache.dataset_digest(data.features, data.targets),
                "weights": hashlib.sha256(json.dumps(
                    model_cache.model_to_payload(model), sort_keys=True
                ).encode()).hexdigest(),
            }
            for name in tuned:
                tmm = framework.tune(name).tuning_model.to_json()
                out[f"tmm.{name}"] = hashlib.sha256(tmm.encode()).hexdigest()
            return out
        finally:
            if store is not None:
                store.close()

    def run_passes(self, seconds: float, tracer=None):
        """Timed passes, each over a fresh store; the outputs are each
        pass's digests."""
        return run_passes(
            lambda index: self.dta(self.seed, store_dir=work_dir(f"design-{index}")),
            seconds, tracer,
        )

    def check(self, digests: list[dict[str, str]]) -> tuple[int, int, list[str]]:
        """Compare every pass's outputs with one serial reference pass.
        Returns (outputs checked, outputs differing, notes)."""
        reference = self.dta(self.seed, serial=True)
        checked = differing = 0
        notes = []
        for index, outputs in enumerate(digests):
            for name, digest in outputs.items():
                checked += 1
                if reference[name] != digest:
                    differing += 1
                    notes.append(f"pass {index}: {name} differs from the serial reference")
        notes.append(
            f"{checked} outputs of {len(digests)} passes checked against "
            "one serial reference pass"
        )
        return checked, differing, notes


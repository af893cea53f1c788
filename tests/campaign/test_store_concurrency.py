"""Multi-process write stress for the concurrent store backend.

The SQLite backend advertises
``supports_concurrent_writers``: several worker processes may put
results into the same store at once (this is what lets campaign pool
workers write directly instead of funnelling results through the
parent).  The contract under contention:

* **no lost records** — every key written by any process is readable
  afterwards;
* **no duplicate-key divergence** — concurrent writers of the same key
  (campaign workers always compute bit-identical payloads for the same
  descriptor) never leave a reader seeing a third value;
* **stale healing is last-wins** — records pre-seeded under an older
  schema version end up healed to the current-version payload.

The JSONL tier makes no such promise and is excluded here.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.campaign.store import STORE_VERSION, ResultStore, job_key

CONCURRENT_BACKENDS = ("sqlite",)

#: Keys are deliberately shared across writers: with 4 writers over 80
#: keys each from a 120-key space, most keys see multiple writers.
WRITERS = 4
KEYS_PER_WRITER = 80
KEY_SPACE = 120


def descriptor(i: int) -> dict:
    return {"mode": "synthetic", "app": f"app-{i % 4}", "i": i}


def result(i: int) -> dict:
    # Deterministic per key — like real campaign jobs, every writer
    # computes the identical payload for the same descriptor.
    return {"node_energy_j": 100.0 + i * 0.125, "time_s": 1.0 + i}


def writer(path_str: str, worker: int) -> None:
    """One writer process: put an overlapping slice of the key space."""
    with ResultStore(path_str) as store:
        for n in range(KEYS_PER_WRITER):
            i = (worker * 31 + n * 7) % KEY_SPACE  # overlapping stride
            store.put(job_key(descriptor(i)), descriptor(i), result(i))
            if n % 16 == 0:
                store.flush()  # interleave index flushes across writers


def written_indices() -> set[int]:
    return {
        (worker * 31 + n * 7) % KEY_SPACE
        for worker in range(WRITERS)
        for n in range(KEYS_PER_WRITER)
    }


@pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
def test_concurrent_writers_lose_nothing(tmp_path, backend):
    path = tmp_path / ("store.sqlite" if backend == "sqlite" else "store-seg")
    with ResultStore(path, backend=backend) as store:
        assert store.supports_concurrent_writers
        # Pre-seed a few stale-version records; concurrent writers must
        # heal them (last-wins) rather than trip over them.
        for i in range(0, KEY_SPACE, 10):
            desc = descriptor(i)
            store._backend.put_record(
                {
                    "key": job_key(desc),
                    "store_version": STORE_VERSION - 1,
                    "job": desc,
                    "result": {"obsolete": True},
                }
            )

    processes = [
        multiprocessing.Process(target=writer, args=(str(path), worker))
        for worker in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0, f"writer crashed (exit {process.exitcode})"

    expected = written_indices()
    assert len(expected) == KEY_SPACE  # the strides cover the key space
    with ResultStore(path) as store:
        assert len(store) == KEY_SPACE
        for i in sorted(expected):
            assert store.get(job_key(descriptor(i))) == result(i), i
        assert store.stale_records == 0  # every seeded record was healed
        assert store.verify() == []
        summary = store.summary()
        assert summary["results"] == KEY_SPACE
        assert sum(summary["apps"].values()) == KEY_SPACE


@pytest.mark.parametrize("backend", CONCURRENT_BACKENDS)
def test_live_store_sees_other_processes_after_refresh(tmp_path, backend):
    """A store held open while another process writes picks the new
    records up on refresh() — the engine's post-pool resync path."""
    path = tmp_path / ("live.sqlite" if backend == "sqlite" else "live-seg")
    with ResultStore(path, backend=backend) as store:
        desc = descriptor(0)
        store.put(job_key(desc), desc, result(0))
        store.flush()

        process = multiprocessing.Process(target=writer, args=(str(path), 1))
        process.start()
        process.join(timeout=120)
        assert process.exitcode == 0

        store.refresh()
        for n in range(KEYS_PER_WRITER):
            i = (31 + n * 7) % KEY_SPACE
            assert store.get(job_key(descriptor(i))) == result(i)


def test_jsonl_does_not_claim_concurrency(tmp_path):
    with ResultStore(tmp_path / "store.jsonl") as store:
        assert not store.supports_concurrent_writers

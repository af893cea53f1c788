"""Tests for the content-addressed on-disk result store."""

import json

import pytest

from repro.campaign.plan import CampaignJob
from repro.campaign.store import STORE_VERSION, ResultStore, job_key
from repro.errors import CampaignError


@pytest.fixture
def job():
    return CampaignJob(app="EP", mode="sweep", threads=24)


class TestJobKey:
    def test_stable_across_calls(self, job):
        assert job_key(job.descriptor()) == job_key(job.descriptor())

    def test_distinguishes_jobs(self, job):
        other = CampaignJob(app="EP", mode="sweep", threads=16)
        assert job_key(job.descriptor()) != job_key(other.descriptor())

    def test_mode_label_is_significant(self):
        """sweep and static must not share results (different noise)."""
        sweep = CampaignJob(app="EP", mode="sweep", threads=24)
        static = CampaignJob(app="EP", mode="static", threads=24)
        assert job_key(sweep.descriptor()) != job_key(static.descriptor())

    def test_version_mixed_in(self, job):
        payload = json.dumps(
            {"store_version": STORE_VERSION, **job.descriptor()}, sort_keys=True
        )
        assert "store_version" in payload


class TestResultStore:
    def test_round_trip(self, tmp_path, job):
        store = ResultStore(tmp_path / "store.jsonl")
        key = job_key(job.descriptor())
        assert store.get(key) is None
        store.put(key, job.descriptor(), {"node_energy_j": 1.25})
        assert store.get(key) == {"node_energy_j": 1.25}
        assert key in store and len(store) == 1

    def test_persists_across_reopen(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        first = ResultStore(path)
        first.put(key, job.descriptor(), {"node_energy_j": 0.5, "time_s": 2.0})
        first.close()
        second = ResultStore(path)
        assert second.get(key) == {"node_energy_j": 0.5, "time_s": 2.0}

    def test_floats_round_trip_exactly(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        value = 745.5394528620403
        store = ResultStore(path)
        store.put(key, job.descriptor(), {"node_energy_j": value})
        store.close()
        assert ResultStore(path).get(key)["node_energy_j"] == value

    def test_corrupt_lines_skipped(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        record = {
            "key": key,
            "store_version": STORE_VERSION,
            "job": job.descriptor(),
            "result": {"time_s": 1.0},
        }
        path.write_text(
            json.dumps(record) + "\n" + '{"truncated": '  # crashed mid-write
        )
        store = ResultStore(path)
        assert store.get(key) == {"time_s": 1.0}
        assert len(store) == 1

    def test_older_schema_entry_surfaces_clear_error(self, tmp_path, job):
        """A record matching a requested key but written under another
        schema version must raise an actionable CampaignError, never a
        downstream KeyError."""
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        record = {
            "key": key,
            "store_version": STORE_VERSION - 1,
            "job": job.descriptor(),
            "result": {"legacy_layout": 1.0},
        }
        path.write_text(json.dumps(record) + "\n")
        store = ResultStore(path)
        with pytest.raises(CampaignError, match="older|schema version"):
            store.get(key)

    def test_unversioned_legacy_entry_surfaces_clear_error(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        record = {"key": key, "job": job.descriptor(), "result": {"time_s": 1.0}}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CampaignError, match="schema version"):
            ResultStore(path).get(key)

    def test_stale_records_counted_not_served(self, tmp_path, job):
        """Records from another schema version (whose keys current code
        can never derive) are counted as dead weight in the summary."""
        path = tmp_path / "store.jsonl"
        legacy = {"key": "a" * 32, "job": job.descriptor(), "result": {"x": 1.0}}
        path.write_text(json.dumps(legacy) + "\n")
        store = ResultStore(path)
        assert store.stale_records == 1
        assert store.summary()["stale"] == 1
        assert store.get(job_key(job.descriptor())) is None  # silent miss

    def test_put_heals_stale_record(self, tmp_path, job):
        """Re-putting a key held by another schema version's record must
        replace it — the historical no-op silently dropped the freshly
        computed result and left the store poisoned forever."""
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        stale = {
            "key": key,
            "store_version": STORE_VERSION - 1,
            "job": job.descriptor(),
            "result": {"legacy_layout": 1.0},
        }
        path.write_text(json.dumps(stale) + "\n")
        store = ResultStore(path)
        assert store.stale_records == 1
        store.put(key, job.descriptor(), {"time_s": 2.0})
        assert store.get(key) == {"time_s": 2.0}
        assert store.stale_records == 0
        store.close()
        # The healed record survives a reload (append + last-wins).
        reloaded = ResultStore(path)
        assert reloaded.get(key) == {"time_s": 2.0}
        assert reloaded.stale_records == 0

    def test_records_written_with_current_version(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        store = ResultStore(path)
        store.put(key, job.descriptor(), {"time_s": 1.0})
        store.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["store_version"] == STORE_VERSION

    def test_put_rejects_mismatched_key(self, tmp_path, job):
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(CampaignError):
            store.put("deadbeef", job.descriptor(), {})

    def test_reput_is_noop(self, tmp_path, job):
        path = tmp_path / "store.jsonl"
        key = job_key(job.descriptor())
        store = ResultStore(path)
        store.put(key, job.descriptor(), {"time_s": 1.0})
        store.put(key, job.descriptor(), {"time_s": 99.0})
        assert store.get(key) == {"time_s": 1.0}
        store.close()
        assert len(path.read_text().splitlines()) == 1

    def test_in_memory_store(self, job):
        store = ResultStore(None)
        key = job_key(job.descriptor())
        store.put(key, job.descriptor(), {"time_s": 1.0})
        assert store.get(key) == {"time_s": 1.0}
        assert store.summary()["path"] is None

    def test_summary_breakdown(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        for app, mode, threads in (
            ("EP", "sweep", 12),
            ("EP", "sweep", 16),
            ("CG", "static", 24),
        ):
            j = CampaignJob(app=app, mode=mode, threads=threads)
            store.put(job_key(j.descriptor()), j.descriptor(), {"time_s": 0.0})
        summary = store.summary()
        assert summary["results"] == 3
        assert summary["apps"] == {"CG": 1, "EP": 2}
        assert summary["modes"] == {"static": 1, "sweep": 2}

    def test_creates_parent_directories(self, tmp_path, job):
        path = tmp_path / "deep" / "nested" / "store.jsonl"
        store = ResultStore(path)
        key = job_key(job.descriptor())
        store.put(key, job.descriptor(), {"time_s": 1.0})
        assert path.exists()


class TestLifecycle:
    """Handle hygiene: the store is a context manager and never leaks
    open file handles (the historical close() left one dangling)."""

    def test_context_manager_closes(self, tmp_path, job):
        key = job_key(job.descriptor())
        with ResultStore(tmp_path / "store.jsonl") as store:
            store.put(key, job.descriptor(), {"time_s": 1.0})
        with ResultStore(tmp_path / "store.jsonl") as reopened:
            assert reopened.get(key) == {"time_s": 1.0}

    def test_close_is_idempotent(self, tmp_path, job):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put(job_key(job.descriptor()), job.descriptor(), {"time_s": 1.0})
        store.close()
        store.close()

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_no_resource_warning_on_any_backend(self, tmp_path, job):
        import gc

        key = job_key(job.descriptor())
        for name, backend in (
            ("store.jsonl", "jsonl"),
            ("store.sqlite", "sqlite"),
        ):
            store = ResultStore(tmp_path / name, backend=backend)
            store.put(key, job.descriptor(), {"time_s": 1.0})
            assert store.get(key) == {"time_s": 1.0}
            store.close()
            del store
            gc.collect()  # a leaked handle would warn here, becoming an error

    def test_iter_records_streams_full_records(self, tmp_path, job):
        with ResultStore(tmp_path / "store.jsonl") as store:
            key = job_key(job.descriptor())
            store.put(key, job.descriptor(), {"time_s": 1.0})
            records = list(store.iter_records())
        assert records == [
            {
                "key": key,
                "store_version": STORE_VERSION,
                "job": job.descriptor(),
                "result": {"time_s": 1.0},
            }
        ]

    def test_put_many_rejects_mismatched_key(self, tmp_path, job):
        with ResultStore(tmp_path / "store.jsonl") as store:
            with pytest.raises(CampaignError, match="does not match"):
                store.put_many([("0" * 32, job.descriptor(), {"time_s": 1.0})])

"""Golden-fixture tests for store migration between backends.

``tests/campaign/golden/store-v2.jsonl`` is a committed v2 JSONL store:
twelve current-version records plus two records written under the
previous schema version (stale weight whose keys were hashed under that
version).  Migrating it into each backend must carry every record
verbatim — byte-identical ``get()`` payloads, identical ``summary()``
(modulo path/backend), stale accounting preserved.  The same holds for
the fixture's records laid out as a store of the retired segment
backend, which ``migrate`` still imports.

``store-pre-v2.jsonl`` is a pre-versioning store (no ``store_version``
field); ``migrate`` must refuse it with a clear CampaignError, because
its keys were hashed under the v1 scheme and carrying the records over
would only enshrine dead weight.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.campaign.backends import encode_record
from repro.campaign.store import ResultStore, migrate_store
from repro.errors import CampaignError

GOLDEN = Path(__file__).parent / "golden"
V2_FIXTURE = GOLDEN / "store-v2.jsonl"
PRE_V2_FIXTURE = GOLDEN / "store-pre-v2.jsonl"

DEST_NAMES = {
    "jsonl": "migrated.jsonl",
    "sqlite": "migrated.sqlite",
}


def fixture_records() -> list[dict]:
    return [
        json.loads(line)
        for line in V2_FIXTURE.read_text().splitlines()
        if line.strip()
    ]


def test_fixture_is_what_the_docstring_claims():
    records = fixture_records()
    assert len(records) == 14
    assert sum(1 for r in records if "store_version" in r) == 14
    versions = {r["store_version"] for r in records}
    assert len(versions) == 2  # current + one stale generation


@pytest.mark.parametrize("backend", ("jsonl", "sqlite"))
def test_migrate_fixture_to_each_backend(tmp_path, backend):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    dest = tmp_path / DEST_NAMES[backend]

    stats = migrate_store(source, dest)
    assert stats["migrated"] == 14
    assert stats["stale"] == 2
    assert stats["backend"] == backend

    records = fixture_records()
    with ResultStore(source) as src, ResultStore(dest) as out:
        assert out.backend == backend
        # Byte-identical get() payloads for every current-version key:
        # serialising the payload must give the same bytes both sides.
        current = [r for r in records if r["store_version"] == 2]
        assert len(current) == 12
        for record in current:
            src_payload = src.get(record["key"])
            out_payload = out.get(record["key"])
            assert out_payload == src_payload == record["result"]
            assert json.dumps(out_payload, sort_keys=True) == json.dumps(
                src_payload, sort_keys=True
            )
        # Stale records still raise (not served, not dropped) ...
        stale = [r for r in records if r["store_version"] != 2]
        for record in stale:
            with pytest.raises(CampaignError, match="schema version"):
                out.get(record["key"])
        # ... and summary() is identical modulo path/backend.
        src_summary, out_summary = src.summary(), out.summary()
        for field in ("results", "stale", "apps", "modes"):
            assert out_summary[field] == src_summary[field]
        assert out_summary["stale"] == 2


def test_migrate_round_trip_back_to_jsonl(tmp_path):
    """jsonl -> sqlite -> jsonl carries every record unchanged."""
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    middle = tmp_path / "middle.sqlite"
    final = tmp_path / "final.jsonl"
    migrate_store(source, middle)
    migrate_store(middle, final)
    original = {r["key"]: r for r in fixture_records()}
    with ResultStore(final) as store:
        round_tripped = {r["key"]: r for r in store.iter_records()}
    assert round_tripped == original


def test_migrate_refuses_pre_v2_store(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(PRE_V2_FIXTURE, source)
    dest = tmp_path / "dest.sqlite"
    with pytest.raises(CampaignError, match="pre-v2"):
        migrate_store(source, dest)
    # Nothing half-written: the destination holds no records.
    if dest.exists():
        with ResultStore(dest) as store:
            assert len(store) == 0


def test_migrate_refuses_missing_source(tmp_path):
    with pytest.raises(CampaignError, match="does not exist"):
        migrate_store(tmp_path / "nope.jsonl", tmp_path / "dest.sqlite")


def test_migrate_refuses_same_path(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    with pytest.raises(CampaignError, match="same path"):
        migrate_store(source, source)


def test_migrate_refuses_non_empty_destination(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    dest = tmp_path / "dest.sqlite"
    migrate_store(source, dest)
    with pytest.raises(CampaignError, match="non-empty"):
        migrate_store(source, dest)


def write_segment_store(root: Path, segments: int = 2) -> dict[str, dict]:
    """Lay the fixture out as a retired segment-backend store, by hand.

    The layout that backend wrote: a ``segment-store.json`` manifest and
    ``seg-K.jsonl`` files of :func:`encode_record` lines, each key in
    bucket ``int(key[:8], 16) % segments``.  One current record is
    written twice — first with a superseded payload — so the import
    must apply last-wins within a segment.  Returns the effective
    record per key.
    """
    root.mkdir()
    (root / "segment-store.json").write_text(
        json.dumps({"format": "repro-segment-store", "segments": segments})
        + "\n"
    )
    records = fixture_records()
    superseded = next(r for r in records if r["store_version"] == 2)
    older = dict(superseded, result={"node_energy_j": -1.0})
    lines: dict[int, list[str]] = {}
    for record in [older, *records]:
        bucket = int(record["key"][:8], 16) % segments
        lines.setdefault(bucket, []).append(encode_record(record) + "\n")
    assert sorted(lines) == list(range(segments))  # no empty segment
    for bucket, text in lines.items():
        (root / f"seg-{bucket}.jsonl").write_text("".join(text))
    return {r["key"]: r for r in records}


def test_migrate_imports_legacy_segment_directory(tmp_path):
    segments = tmp_path / "legacy-segments"
    effective = write_segment_store(segments)
    reference = tmp_path / "reference.jsonl"
    shutil.copy(V2_FIXTURE, reference)
    dest = tmp_path / "imported.sqlite"

    stats = migrate_store(segments, dest)
    assert stats["migrated"] == len(effective) == 14
    assert stats["stale"] == 2
    assert stats["backend"] == "sqlite"

    with ResultStore(reference) as ref, ResultStore(dest) as out:
        assert {r["key"]: r for r in out.iter_records()} == effective
        for key, record in effective.items():
            if record["store_version"] == 2:
                assert out.get(key) == ref.get(key) == record["result"]
        ref_summary, out_summary = ref.summary(), out.summary()
        for field in ("results", "stale", "quarantined", "apps", "modes"):
            assert out_summary[field] == ref_summary[field]


def test_legacy_segment_directory_is_not_a_live_store(tmp_path):
    segments = tmp_path / "legacy-segments"
    write_segment_store(segments)
    with pytest.raises(CampaignError, match="repro-campaign store migrate"):
        ResultStore(segments)


def test_legacy_import_loses_only_a_torn_segment_tail(tmp_path):
    """A crash mid-append tore the last line of one segment: that one
    record is dropped, every other record is imported."""
    segments = tmp_path / "legacy-segments"
    effective = write_segment_store(segments)
    victim = sorted(segments.glob("seg-*.jsonl"))[0]
    lines = victim.read_bytes().splitlines(keepends=True)
    torn = json.loads(lines[-1])
    victim.write_bytes(b"".join(lines[:-1]) + lines[-1][:-25])
    dest = tmp_path / "imported.sqlite"

    stats = migrate_store(segments, dest)
    assert stats["migrated"] == len(effective) - 1

    with ResultStore(dest) as out:
        imported = {r["key"]: r for r in out.iter_records()}
    assert torn["key"] not in imported
    assert imported == {k: r for k, r in effective.items() if k != torn["key"]}


@pytest.mark.parametrize("extra", ("garbled-manifest", "offset-sidecars"))
def test_legacy_import_reads_only_segment_files(tmp_path, extra):
    """The manifest and the ``seg-K.idx.json`` offset indexes were
    advisory; the import never reads them, so neither damage to the
    manifest nor the sidecars' own JSON lines change what is
    imported."""
    segments = tmp_path / "legacy-segments"
    effective = write_segment_store(segments)
    if extra == "garbled-manifest":
        (segments / "segment-store.json").write_text("}{")
    else:
        for segment in segments.glob("seg-*.jsonl"):
            keys = [json.loads(line)["key"] for line in segment.open()]
            sidecar = {
                "segments": 2,
                "size": segment.stat().st_size,
                "offsets": {key: 0 for key in keys},
            }
            segment.with_name(
                segment.name.replace(".jsonl", ".idx.json")
            ).write_text(json.dumps(sidecar) + "\n")
    dest = tmp_path / "imported.jsonl"

    stats = migrate_store(segments, dest)
    assert stats["migrated"] == len(effective)
    with ResultStore(dest) as out:
        assert {r["key"]: r for r in out.iter_records()} == effective


def test_migrate_refuses_directory_destination(tmp_path):
    source = tmp_path / "source.jsonl"
    shutil.copy(V2_FIXTURE, source)
    dest = tmp_path / "dest-dir"
    dest.mkdir()
    with pytest.raises(CampaignError, match="is a directory"):
        migrate_store(source, dest)
    assert list(dest.iterdir()) == []

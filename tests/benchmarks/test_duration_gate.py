"""Tests for the CI slow-test gate (scripts/check_test_durations.py)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_test_durations.py"
spec = importlib.util.spec_from_file_location("check_test_durations", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

REPORT = """\
============================= slowest durations ==============================
60.04s call     tests/serve/test_service.py::TestFaultsAndDrain::test_drain
2.66s call     tests/serve/test_workers.py::TestStructural::test_overtake
1.50s setup    tests/ptf/test_region_model.py::TestRates::test_positive
0.60s call     tests/ptf/test_region_model.py::TestRates::test_positive
0.01s teardown tests/ptf/test_region_model.py::TestRates::test_positive

(120 durations < 0.005s hidden.  Use -vv to show these durations.)
1034 passed, 13 deselected in 158.13s (0:02:38)
"""


def write(tmp_path: Path, text: str) -> str:
    path = tmp_path / "pytest.log"
    path.write_text(text)
    return str(path)


def test_phases_sum_per_test():
    totals = gate.durations_by_test(REPORT.splitlines())
    assert len(totals) == 3
    assert abs(totals["tests/ptf/test_region_model.py::TestRates::test_positive"] - 2.11) < 1e-9


def test_fails_on_a_test_over_budget(tmp_path, capsys):
    assert gate.main([write(tmp_path, REPORT)]) == 1
    out = capsys.readouterr().out
    assert "test_drain" in out
    assert "test_overtake" not in out


def test_passes_within_budget(tmp_path):
    fast = REPORT.replace("60.04s", "6.04s")
    assert gate.main([write(tmp_path, fast)]) == 0


def test_report_without_durations_is_an_error(tmp_path):
    assert gate.main([write(tmp_path, "1 passed in 0.1s\n")]) == 2

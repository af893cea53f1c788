"""Tests for region trees, applications and the Table II registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.application import Application, ProgrammingModel
from repro.workloads.generator import random_application
from repro.workloads.region import Region, phase_region
from repro.workloads import registry


class TestRegion:
    def test_walk_is_preorder(self):
        root = Region("a")
        b = root.add_child(Region("b"))
        b.add_child(Region("c"))
        root.add_child(Region("d"))
        assert [r.name for r in root.walk()] == ["a", "b", "c", "d"]

    def test_find_raises_for_missing(self):
        with pytest.raises(WorkloadError):
            Region("a").find("zzz")

    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            Region("")

    def test_bad_calls_per_phase_rejected(self):
        with pytest.raises(WorkloadError):
            Region("x", calls_per_phase=0)


class TestApplication:
    def test_requires_exactly_one_phase_region(self):
        main = Region("main")
        with pytest.raises(WorkloadError, match="phase"):
            Application(
                name="x", suite="s", model=ProgrammingModel.OPENMP, main=main
            )

    def test_two_phase_regions_rejected(self):
        main = Region("main")
        main.add_child(phase_region([], name="p1"))
        main.add_child(phase_region([], name="p2"))
        with pytest.raises(WorkloadError):
            Application(name="x", suite="s", model=ProgrammingModel.OPENMP, main=main)

    def test_candidate_regions_are_phase_children(self):
        app = registry.build("Lulesh")
        names = {r.name for r in app.candidate_regions}
        assert "IntegrateStressForElems" in names

    def test_mpi_model_fixes_threads(self):
        assert not ProgrammingModel.MPI.supports_thread_tuning
        assert ProgrammingModel.HYBRID.supports_thread_tuning


class TestResolveThreads:
    """The one thread-count rule shared by the simulators and serving."""

    def test_none_means_application_default(self):
        app = registry.build("Lulesh")
        assert app.resolve_threads(None, 24) == app.default_threads

    @pytest.mark.parametrize("threads", (1, 12, 24))
    def test_in_range_count_is_used_as_asked(self, threads):
        app = registry.build("Lulesh")
        assert app.resolve_threads(threads, 24) == threads

    def test_mpi_only_code_runs_at_its_default(self):
        app = registry.build("Kripke")
        assert app.model is ProgrammingModel.MPI
        assert app.resolve_threads(4, 24) == app.default_threads

    @pytest.mark.parametrize("threads", (0, -3, 25))
    def test_out_of_range_count_rejected(self, threads):
        app = registry.build("Lulesh")
        with pytest.raises(WorkloadError, match="invalid thread count"):
            app.resolve_threads(threads, 24)

    def test_default_is_checked_against_the_core_count(self):
        app = registry.build("Kripke")
        assert app.default_threads > 12
        with pytest.raises(WorkloadError, match="invalid thread count"):
            app.resolve_threads(None, 12)


class TestRegistry:
    def test_nineteen_benchmarks(self):
        assert len(registry.benchmark_names()) == 19

    def test_table2_roster_suites(self):
        roster = registry.roster()
        by_suite = {}
        for info in roster:
            by_suite.setdefault(info.suite, []).append(info.name)
        assert sorted(by_suite["NPB-3.3"]) == sorted(
            ["CG", "DC", "EP", "FT", "IS", "MG", "BT", "BT-MZ", "SP-MZ"]
        )
        assert sorted(by_suite["CORAL"]) == sorted(
            ["Amg2013", "Lulesh", "miniFE", "XSBench", "Kripke", "Mcb"]
        )
        assert sorted(by_suite["Mantevo"]) == sorted(["CoMD", "miniMD"])
        assert by_suite["LLCBench"] == ["Blasbench"]
        assert by_suite["Other"] == ["BEM4I"]

    def test_test_split_matches_paper(self):
        assert set(registry.TEST_BENCHMARKS) == {
            "Lulesh", "Amg2013", "miniMD", "BEM4I", "Mcb"
        }
        assert len(registry.training_benchmarks()) == 14

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            registry.build("NotABenchmark")

    def test_mpi_only_benchmarks(self):
        assert registry.info("Kripke").model is ProgrammingModel.MPI
        assert registry.info("CoMD").model is ProgrammingModel.MPI

    def test_builders_return_fresh_instances(self):
        assert registry.build("Lulesh") is not registry.build("Lulesh")

    def test_lulesh_table3_regions_present(self):
        app = registry.build("Lulesh")
        for name in (
            "IntegrateStressForElems",
            "CalcFBHourglassForceForElems",
            "CalcKinematicsForElems",
            "CalcQForElems",
            "ApplyMaterialPropertiesForElems",
        ):
            app.find_region(name)

    def test_mcb_table4_regions_present(self):
        app = registry.build("Mcb")
        for name in (
            "setupDT", "advPhoton",
            "omp parallel:423", "omp parallel:501", "omp parallel:642",
        ):
            app.find_region(name)


class TestGenerator:
    def test_deterministic(self):
        a = random_application(3)
        b = random_application(3)
        assert [r.name for r in a.regions] == [r.name for r in b.regions]

    def test_has_valid_phase(self):
        app = random_application(7)
        assert app.phase is not None
        assert len(app.candidate_regions) >= 2

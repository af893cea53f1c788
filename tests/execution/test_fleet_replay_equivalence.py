"""Bit-identity of the fleet kernel vs the per-run engines.

The fleet kernel (:mod:`repro.execution.fleet_replay`) batches the
application x node x controller axes into one padded pricing pass.  It
must be *exactly* equivalent to executing each member individually
through :class:`~repro.execution.simulator.ExecutionSimulator` on a
fresh node: every ``RunResult`` field, every ``RegionInstance`` row,
the controller's :class:`~repro.readex.rrl.RRLStatistics`, and the
meter/MSR end state the run would leave behind.  These tests sweep
apps, nodes, TMMs and seeds, then property-test random fleet
compositions — including the invariant that permuting or splitting a
fleet never changes any member's payload (the batching analogue of
PR 8's admission-order property).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.errors import WorkloadError
from repro.execution.fleet_replay import FleetMember, fleet_run
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.sweep_replay import meter_end_state
from repro.hardware.node import ComputeNode
from repro.readex.rrl import RRL, StaticController
from repro.readex.tuning_model import TuningModel
from repro.scorep.instrumentation import Instrumentation
from repro.workloads import registry

#: OpenMP / MPI / hybrid benchmarks with different tree sizes, so mixed
#: fleets exercise genuinely ragged charge-row lengths.
APPS = ("Lulesh", "Mcb", "FT", "EP")

_APP_CACHE: dict = {}


def build_app(name):
    if name not in _APP_CACHE:
        _APP_CACHE[name] = registry.build(name)
    return _APP_CACHE[name]


def make_tmm(app) -> TuningModel:
    regions = [r.name for r in app.phase.children][:4]
    best = {"phase": OperatingPoint(2.5, 2.1, 24)}
    for i, name in enumerate(regions):
        best[name] = OperatingPoint(2.4 if i % 2 else 2.5, 2.0, 24)
    return TuningModel.from_best_configs(app.name, "phase", best)


#: Member shapes, mirroring every analysis-layer call site: grid cells
#: (programmed static points), savings variants (default / static
#: controller / instrumented RRL / config-only RRL).
KINDS = ("default", "static_point", "static_ctrl", "rrl", "rrl_instrumented")


def build_member(spec) -> FleetMember:
    """A fresh FleetMember (fresh controller/instrumentation) per spec."""
    app = build_app(spec["app"])
    kind = spec["kind"]
    member = FleetMember(
        app=app,
        run_key=(kind, spec["app"], spec.get("tag", 0)),
        node_id=spec.get("node_id", 0),
        seed=spec.get("seed", config.DEFAULT_SEED),
        node_seed=spec.get("node_seed"),
    )
    if kind == "default":
        member.threads = config.DEFAULT_OPENMP_THREADS
    elif kind == "static_point":
        member.point = OperatingPoint(
            spec.get("cf", 2.0), spec.get("ucf", 2.2), spec.get("threads", 24)
        )
    elif kind == "static_ctrl":
        member.controller = StaticController(OperatingPoint(2.2, 1.8, 24))
        member.threads = 24
    elif kind == "rrl":
        member.controller = RRL(make_tmm(app))
    else:
        member.controller = RRL(make_tmm(app))
        member.instrumented = True
        member.instrumentation = Instrumentation.compiler_default(app)
    return member


def run_reference(member: FleetMember):
    """The member's per-run execution: fresh node, program, run."""
    node = ComputeNode(
        member.node_id,
        seed=member.seed if member.node_seed is None else member.node_seed,
        topology=member.topology,
        variability=member.variability,
    )
    if member.point is not None:
        node.set_frequencies(member.point.core_freq_ghz, member.point.uncore_freq_ghz)
    threads = member.threads
    if threads is None and member.point is not None:
        threads = member.point.threads
    instrumentation = member.instrumentation
    if instrumentation is not None:
        instrumentation = Instrumentation(
            app=member.app, filtered=set(instrumentation.filtered)
        )
    result = ExecutionSimulator(node, seed=member.seed).run(
        member.app,
        threads=threads,
        controller=member.controller,
        instrumented=member.instrumented,
        instrumentation=instrumentation,
        run_key=member.run_key,
    )
    return result, node


def assert_member_identical(got, end, member_ref: FleetMember):
    ref, node = run_reference(member_ref)
    assert got == ref
    assert list(got.instances) == list(ref.instances)
    assert end == meter_end_state(node)


class TestFleetEquivalence:
    @pytest.mark.parametrize("app_name", APPS)
    def test_every_member_kind_bit_identical(self, app_name):
        specs = [{"app": app_name, "kind": kind} for kind in KINDS]
        fleet = fleet_run([build_member(s) for s in specs])
        assert len(fleet) == len(specs)
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_mixed_apps_nodes_and_seeds(self):
        specs = [
            {"app": "Lulesh", "kind": "default"},
            {"app": "EP", "kind": "static_point", "cf": 1.8, "ucf": 1.6,
             "threads": 12, "node_id": 3, "seed": 11, "node_seed": 77},
            {"app": "FT", "kind": "rrl", "seed": 5},
            {"app": "Mcb", "kind": "static_point", "cf": 2.3, "ucf": 2.8,
             "node_id": 1},
            {"app": "Lulesh", "kind": "rrl_instrumented"},
            {"app": "FT", "kind": "static_ctrl", "node_seed": 9},
        ]
        fleet = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    def test_rrl_statistics_match_per_run_engine(self):
        app = build_app("Lulesh")
        fleet_ctrl, ref_ctrl = RRL(make_tmm(app)), RRL(make_tmm(app))
        member = FleetMember(app=app, run_key=("dynamic", 0), controller=fleet_ctrl)
        fleet = fleet_run([member])
        node = ComputeNode(0, seed=config.DEFAULT_SEED)
        ref = ExecutionSimulator(node).run(
            app, controller=ref_ctrl, run_key=("dynamic", 0)
        )
        assert fleet.results[0] == ref
        assert fleet_ctrl.stats == ref_ctrl.stats

    def test_foreign_controller_falls_back_bit_identically(self):
        class Foreign:
            """No compile_schedule protocol: forces the recursive path."""

            def on_region_enter(self, node, region, app):
                return None

            def on_region_exit(self, node, region, app):
                return None

        app = build_app("EP")
        member = FleetMember(app=app, run_key=("foreign",), controller=Foreign())
        fleet = fleet_run([member])
        node = ComputeNode(0, seed=config.DEFAULT_SEED)
        ref = ExecutionSimulator(node).run(
            app, controller=Foreign(), run_key=("foreign",)
        )
        assert fleet.results[0] == ref
        assert fleet.end_states[0] == meter_end_state(node)

    def test_one_sweep_per_recipe_group(self, monkeypatch):
        """Uncontrolled members sharing a fresh-node recipe price in one
        sweep_run call, however they interleave; controlled members
        never reach the sweep kernel."""
        from repro.execution import fleet_replay

        calls = []
        real = fleet_replay.sweep_run

        def counting(app, points, **kwargs):
            calls.append((app.name, kwargs["node_id"], len(points)))
            return real(app, points, **kwargs)

        monkeypatch.setattr(fleet_replay, "sweep_run", counting)
        grid = [
            OperatingPoint(cf, ucf, 24) for cf in (1.8, 2.2, 2.5) for ucf in (1.6, 2.2)
        ]

        def cell(app_name, point, node_id=0):
            return FleetMember(
                app=build_app(app_name),
                run_key=("heatmap", point.core_freq_ghz, point.uncore_freq_ghz),
                node_id=node_id,
                point=point,
            )

        members = []
        for point in grid:
            members += [cell("Lulesh", point), cell("EP", point)]
        members += [cell("Lulesh", grid[0], node_id=1)]
        members += [build_member({"app": "Lulesh", "kind": "rrl"})]
        fleet = fleet_run(members)
        assert sorted(calls) == [("EP", 0, 6), ("Lulesh", 0, 6), ("Lulesh", 1, 1)]
        for i, member in enumerate(members[:-1]):
            assert_member_identical(fleet.results[i], fleet.end_states[i], member)
        assert_member_identical(
            fleet.results[-1],
            fleet.end_states[-1],
            build_member({"app": "Lulesh", "kind": "rrl"}),
        )

    def test_empty_fleet(self):
        fleet = fleet_run([])
        assert len(fleet) == 0
        assert fleet.results == ()

    def test_invalid_thread_count_raises(self):
        app = build_app("Lulesh")
        member = FleetMember(app=app, run_key=("bad",), threads=999)
        with pytest.raises(WorkloadError, match="invalid thread count"):
            fleet_run([member])

    def test_engine_tag_and_lazy_instances(self):
        member = build_member({"app": "EP", "kind": "static_point"})
        fleet = fleet_run([member])
        assert fleet.results[0].engine == "fleet"
        # Instances materialise lazily and stay stable across reads.
        first = list(fleet.results[0].instances)
        assert first == list(fleet.results[0].instances)
        assert len(first) > 0


#: Random fleet compositions: any app, any member kind, varied seeds
#: and node ids — mixed static/RRL members with ragged phase counts.
member_specs = st.lists(
    st.fixed_dictionaries(
        {
            "app": st.sampled_from(APPS),
            "kind": st.sampled_from(KINDS),
            "seed": st.integers(0, 3),
            "node_id": st.integers(0, 2),
            "tag": st.integers(0, 1),
        }
    ),
    min_size=1,
    max_size=5,
)


class TestFleetProperties:
    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs)
    def test_random_compositions_bit_identical(self, specs):
        fleet = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            assert_member_identical(
                fleet.results[i], fleet.end_states[i], build_member(spec)
            )

    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs, data=st.data())
    def test_order_independence(self, specs, data):
        """Permuting the fleet permutes — never perturbs — the payloads."""
        order = data.draw(st.permutations(range(len(specs))))
        baseline = fleet_run([build_member(s) for s in specs])
        permuted = fleet_run([build_member(specs[j]) for j in order])
        for pos, j in enumerate(order):
            assert permuted.results[pos] == baseline.results[j]
            assert list(permuted.results[pos].instances) == list(
                baseline.results[j].instances
            )
            assert permuted.end_states[pos] == baseline.end_states[j]

    @settings(max_examples=8, deadline=None)
    @given(specs=member_specs, data=st.data())
    def test_padding_independence_under_splits(self, specs, data):
        """Splitting a fleet (different padded widths per sub-fleet)
        never changes any member's payload."""
        cut = data.draw(st.integers(0, len(specs)))
        whole = fleet_run([build_member(s) for s in specs])
        left = fleet_run([build_member(s) for s in specs[:cut]])
        right = fleet_run([build_member(s) for s in specs[cut:]])
        rejoined = list(left.results) + list(right.results)
        rejoined_ends = list(left.end_states) + list(right.end_states)
        for i in range(len(specs)):
            assert rejoined[i] == whole.results[i]
            assert list(rejoined[i].instances) == list(whole.results[i].instances)
            assert rejoined_ends[i] == whole.end_states[i]

    def test_solo_equals_batched(self):
        """Each member alone prices identically to the batched fleet —
        the padded matrix is invisible."""
        specs = [
            {"app": "Lulesh", "kind": "rrl"},
            {"app": "EP", "kind": "static_point"},
            {"app": "FT", "kind": "default"},
        ]
        batched = fleet_run([build_member(s) for s in specs])
        for i, spec in enumerate(specs):
            solo = fleet_run([build_member(spec)])
            assert solo.results[0] == batched.results[i]
            assert list(solo.results[0].instances) == list(
                batched.results[i].instances
            )
            assert solo.end_states[0] == batched.end_states[i]

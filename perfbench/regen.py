"""``paper-regen``: regenerate the paper's execution-side artefacts.

One pass, at paper scale, through the default paths:

* Figures 2/3: ``variability_study("Lulesh")`` on the core and uncore
  axes over all 8 nodes of ``Cluster(8)``;
* Figures 6/7 and Table V: full 14 x 18 CF x UCF grids for Lulesh@24,
  Mcb@20 and the five evaluation benchmarks at default threads, all in
  one ``api.sweep_grids`` call; Table V is each evaluation grid's
  best static configuration;
* Table VI: ``compare_static_dynamic_many`` over the five evaluation
  benchmarks, ``runs=5``, with canned tuning models, on a store-less
  serial ``CampaignEngine``.

The noise seed of pass ``i`` is the workload seed plus ``i``, so no pass
reuses another's results.  Sampled passes are checked artefact by
artefact (sha256 of canonical JSON) against the per-cell ``loop``
reference arm for the same seed.
"""

from __future__ import annotations

import hashlib
import json

from perfbench.common import WARM_SEED_OFFSET, run_passes

EVALUATION = ("Lulesh", "Amg2013", "miniMD", "BEM4I", "Mcb")
HEATMAPS = (("Lulesh", 24), ("Mcb", 20))
VARIABILITY_NODES = tuple(range(8))
SAVINGS_RUNS = 5


def checksum(artifact) -> str:
    canonical = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _variability(study) -> dict:
    return {
        "axis": study.axis,
        "frequencies": list(study.frequencies),
        "raw_energy_j": {str(n): v.tolist() for n, v in sorted(study.raw_energy_j.items())},
        "normalized_energy": {
            str(n): v.tolist() for n, v in sorted(study.normalized_energy.items())
        },
    }


def _grid(grid) -> dict:
    return {
        "benchmark": grid.benchmark,
        "threads": grid.threads,
        "node_energy_j": grid.node_energy_j.tolist(),
        "cpu_energy_j": grid.cpu_energy_j.tolist(),
        "time_s": grid.time_s.tolist(),
    }


def _best(grid) -> list:
    flat = int(grid.node_energy_j.argmin())
    i, j = divmod(flat, grid.node_energy_j.shape[1])
    return [grid.core_frequencies[i], grid.uncore_frequencies[j],
            float(grid.node_energy_j[i, j])]


def _savings(row) -> dict:
    def averages(a):
        return [a.job_energy_j, a.cpu_energy_j, a.time_s]

    return {
        "default": averages(row.default),
        "static": averages(row.static),
        "dynamic": averages(row.dynamic),
        "config_only": averages(row.config_only),
        "static_cpu_energy_saving": row.static_cpu_energy_saving,
        "dynamic_cpu_energy_saving": row.dynamic_cpu_energy_saving,
    }


class PaperRegen:
    name = "paper-regen"
    op_name = "regeneration pass"
    pass_label = "regen_s"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Import the analysis stack and run one token-scale pass (two
        nodes, every 7th frequency, one savings run) at a seed no timed
        pass uses: registry, memoised region timings and compiled
        structural schedules are then warm."""
        from benchmarks.bench_table6_savings import (
            CANNED_STATIC,
            canned_tuning_model,
        )
        from repro.analysis.savings import SavingsCase

        self._cases = [
            SavingsCase(name, CANNED_STATIC, canned_tuning_model(name))
            for name in EVALUATION
        ]
        self.regenerate(self.seed + WARM_SEED_OFFSET, nodes=(0, 1),
                        stride=7, runs=1)

    def regenerate(self, seed: int, *, engine: str = "fleet",
                   nodes=VARIABILITY_NODES, stride: int = 1,
                   runs: int = SAVINGS_RUNS) -> dict[str, str]:
        """One pass; returns artefact name -> sha256.

        ``engine="loop"`` is the reference arm: the per-cell variability
        loop, per-cell grid loops and in-process savings runs.
        """
        from repro import api
        from repro.analysis import savings, variability
        from repro.campaign.engine import CampaignEngine
        from repro.hardware.cluster import Cluster

        out: dict[str, str] = {}
        cluster = Cluster(len(VARIABILITY_NODES), seed=seed)
        for figure, axis in (("fig2", "core"), ("fig3", "uncore")):
            study = variability.variability_study(
                "Lulesh", axis=axis, nodes=nodes, cluster=cluster, seed=seed,
                engine=engine,
            )
            out[f"{figure}_{axis}_variability"] = checksum(_variability(study))

        specs = [api.GridSpec(b, threads=t, stride=stride, seed=seed)
                 for b, t in HEATMAPS]
        specs += [api.GridSpec(b, stride=stride, seed=seed) for b in EVALUATION]
        if engine == "loop":
            grids = api.sweep_grids(specs, options=api.ExecutionOptions(engine="loop"))
        else:
            grids = api.sweep_grids(specs)
        for (bench, _), grid in zip(HEATMAPS, grids):
            out[f"fig67_{bench.lower()}_grid"] = checksum(_grid(grid))
        evaluation = grids[len(HEATMAPS):]
        out["table5_best_configs"] = checksum(
            {g.benchmark: [_grid(g), _best(g)] for g in evaluation}
        )

        options = (
            api.ExecutionOptions() if engine == "loop"
            else api.ExecutionOptions(campaign=CampaignEngine(max_workers=0))
        )
        rows = savings.compare_static_dynamic_many(
            self._cases, runs=runs, seed=seed, options=options
        )
        out["table6_savings"] = checksum(
            {row.benchmark: _savings(row) for row in rows}
        )
        return out

    # ------------------------------------------------------------------
    def run_passes(self, seconds: float, tracer=None):
        """Timed passes; the outputs are (pass seed, artefact digests)."""
        def one_pass(index: int):
            seed = self.seed + index
            return seed, self.regenerate(seed)

        return run_passes(one_pass, seconds, tracer)

    def check(self, passes: list[tuple[int, dict[str, str]]]) -> tuple[int, int, list[str]]:
        """Compare the first and last passes with the loop arm.
        Returns (artefacts checked, artefacts differing, notes)."""
        picks = sorted({0, len(passes) - 1})
        checked = differing = 0
        notes = []
        for index in picks:
            seed, digests = passes[index]
            reference = self.regenerate(seed, engine="loop")
            for name, digest in digests.items():
                checked += 1
                if reference[name] != digest:
                    differing += 1
                    notes.append(f"seed {seed}: {name} differs from the loop arm")
        notes.append(
            f"{checked} artefacts of {len(picks)} of {len(passes)} passes "
            "checked against the loop reference arm"
        )
        return checked, differing, notes


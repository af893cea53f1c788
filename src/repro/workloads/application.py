"""Application model: a region tree plus execution configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import config
from repro.errors import WorkloadError
from repro.workloads.region import Region, RegionKind


class ProgrammingModel(enum.Enum):
    """How the benchmark is parallelised (Table II)."""

    OPENMP = "OpenMP"
    MPI = "MPI"
    HYBRID = "MPI+OpenMP"

    @property
    def supports_thread_tuning(self) -> bool:
        """Only OpenMP and hybrid codes expose the thread-count knob."""
        return self is not ProgrammingModel.MPI


@dataclass
class Application:
    """One benchmark: metadata, the region tree and loop structure.

    The tree is rooted at ``main``; the phase region (one iteration of the
    main loop) must be a descendant and is executed
    ``phase_iterations`` times per run.
    """

    name: str
    suite: str
    model: ProgrammingModel
    main: Region
    phase_iterations: int = 10
    default_threads: int = config.DEFAULT_OPENMP_THREADS
    description: str = ""

    def __post_init__(self) -> None:
        if self.phase_iterations <= 0:
            raise WorkloadError("phase_iterations must be positive")
        phases = [r for r in self.main.walk() if r.kind is RegionKind.PHASE]
        if len(phases) != 1:
            raise WorkloadError(
                f"{self.name}: application must have exactly one phase region, "
                f"found {len(phases)}"
            )
        self._phase = phases[0]

    def resolve_threads(self, threads: int | None, num_cores: int) -> int:
        """The OpenMP thread count a run asked for ``threads`` uses.

        ``None`` means the application default; MPI-only codes have no
        thread knob and always run at their default, whatever was asked.
        Raises :class:`WorkloadError` unless the count lies in
        ``[1, num_cores]``.
        """
        if threads is None or not self.model.supports_thread_tuning:
            threads = self.default_threads
        if not 1 <= threads <= num_cores:
            raise WorkloadError(f"invalid thread count: {threads}")
        return threads

    @property
    def phase(self) -> Region:
        """The phase region (one main-loop iteration)."""
        return self._phase

    @property
    def regions(self) -> tuple[Region, ...]:
        """All regions of the application in pre-order."""
        return tuple(self.main.walk())

    @property
    def candidate_regions(self) -> tuple[Region, ...]:
        """Direct children of the phase region — candidates for tuning."""
        return tuple(self._phase.children)

    def find_region(self, name: str) -> Region:
        return self.main.find(name)


@dataclass(frozen=True)
class BenchmarkInfo:
    """Registry metadata for Table II."""

    name: str
    suite: str
    model: ProgrammingModel
    memory_bound: bool
    description: str = ""

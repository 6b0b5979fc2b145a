"""Precomputed recovery plans (paper Sec. II-B).

"The number of different single disk failure situations is equal to the
number of disks, so we can find the recovery schemes for each single disk
failure situation ahead of time and directly use them whenever they are
needed."  :class:`RecoveryPlanner` is that cache; backed by a
:class:`~repro.recovery.plancache.SchemePlanCache` with a path, its plans
survive process restarts — the schemes are deterministic, so a reload is
byte-identical to a regeneration.

:data:`ALGORITHMS` is the one table from an algorithm name to its
generator; every planner, CLI choice and :func:`scheme_for_disk` call
resolves names through it (the search generators' cost keys come from
:func:`repro.recovery.search.cost_key`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import obs
from repro.codes.base import ErasureCode
from repro.recovery.calgorithm import c_scheme
from repro.recovery.conventional import conventional_scheme
from repro.recovery.khan import khan_scheme
from repro.recovery.naive import naive_scheme
from repro.recovery.plancache import SchemePlanCache
from repro.recovery.scheme import RecoveryScheme
from repro.recovery.ualgorithm import u_scheme

#: algorithm name -> ``generator(code, failed_disk, depth=, max_expansions=)``
ALGORITHMS: Dict[str, Callable[..., RecoveryScheme]] = {
    "naive": naive_scheme,
    "conventional": conventional_scheme,
    "khan": khan_scheme,
    "c": c_scheme,
    "u": u_scheme,
}


def scheme_generator(algorithm: str) -> Callable[..., RecoveryScheme]:
    """The generator ``algorithm`` names; an unknown name raises
    :class:`ValueError` listing the choices."""
    try:
        return ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None


def scheme_for_disk(
    code: ErasureCode,
    failed_disk: int,
    algorithm: str = "u",
    depth: int = 2,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """One disk's scheme under the named algorithm (no caching)."""
    return scheme_generator(algorithm)(
        code, failed_disk, depth=depth, max_expansions=max_expansions
    )


class RecoveryPlanner:
    """Per-disk recovery scheme cache for one code instance."""

    def __init__(
        self,
        code: ErasureCode,
        algorithm: str = "u",
        depth: int = 2,
        max_expansions: Optional[int] = 2_000_000,
        plan_cache: Optional[SchemePlanCache] = None,
    ) -> None:
        self._generator = scheme_generator(algorithm)
        self.code = code
        self.algorithm = algorithm
        self.depth = depth
        self.max_expansions = max_expansions
        #: cross-process plan store consulted before any search runs
        self.plan_cache = plan_cache
        self._cache: Dict[int, RecoveryScheme] = {}

    def scheme_for_disk(self, disk: int) -> RecoveryScheme:
        """The (cached) scheme for a single failed disk."""
        if disk not in self._cache:
            self._cache[disk] = self._generate(disk)
        return self._cache[disk]

    def _from_plan_cache(self, disk: int) -> Optional[RecoveryScheme]:
        """Consult the persistent plan cache, if one is attached."""
        if self.plan_cache is None:
            return None
        return self.plan_cache.get(
            self.code, disk, self.algorithm, self.depth, self.max_expansions
        )

    def _generate(self, disk: int) -> RecoveryScheme:
        cached = self._from_plan_cache(disk)
        if cached is not None:
            return cached
        with obs.span("planner.generate", disk=disk, algorithm=self.algorithm):
            obs.count("planner.schemes_generated")
            scheme = self._generator(
                self.code, disk, depth=self.depth,
                max_expansions=self.max_expansions,
            )
        if self.plan_cache is not None:
            self.plan_cache.put(
                self.code, disk, self.algorithm, self.depth, scheme,
                self.max_expansions,
            )
        return scheme

    def all_data_disk_schemes(self) -> List[RecoveryScheme]:
        """Schemes for every user-data disk (the paper's Fig. 3/4 setup)."""
        return [self.scheme_for_disk(d) for d in self.code.layout.data_disks]

    def all_disk_schemes(self) -> List[RecoveryScheme]:
        """Schemes for every disk, parity included."""
        return [self.scheme_for_disk(d) for d in range(self.code.layout.n_disks)]

"""Seeded property checks for the power-mean implementation.

Run from the CLI as `twinmeans selftest --seed N` and reused directly by the
test suite.  Two families of multisets are drawn per round: a monotonicity
set (sizes 1..1000, occasionally constant, occasionally rescaled by 1e120 to
exercise the factored evaluation) and a small limit-agreement set (sizes
2..50, values in [0.1, 1]).  The size cap on the second family matters: the
alpha=200 mean sits within (1/N)^(1/200) of the max, which stays inside the
2 percent tolerance only for N <= 56.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .means import MeanLimit, mean_limit, power_mean

ALPHA_GRID = (-16.0, -8.0, -4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0, 8.0)
MONOTONE_TOL = 1e-12
ZERO_LIMIT_REL_TOL = 1e-6
SUP_ALPHA = 200.0
SUP_REL_TOL = 0.02
_LIMIT_SET_MAX = 50


@dataclass
class SelftestReport:
    """What a seeded run checked and which checks failed: results only, so
    the same seed and sets print the same bytes on every run."""

    seed: int
    sets: int
    monotonicity_checks: int
    limit_checks: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _monotone_set(rng: random.Random, i: int) -> tuple[list[float], bool]:
    size = rng.randint(1, 1000)
    if i % 10 == 9:
        vals = [rng.uniform(0.1, 1.0)] * size
        constant = True
    else:
        vals = [rng.uniform(0.1, 1.0) for _ in range(size)]
        if size >= 2:
            # pin a genuine spread so the strict-inequality check is meaningful
            vals[0] = rng.uniform(0.1, 0.4)
            vals[1] = rng.uniform(0.7, 1.0)
        constant = size == 1
    if i % 25 == 24:
        vals = [v * 1e120 for v in vals]
    return vals, constant


def _limit_set(rng: random.Random) -> list[float]:
    size = rng.randint(2, _LIMIT_SET_MAX)
    vals = [rng.uniform(0.1, 1.0) for _ in range(size)]
    vals[0] = rng.uniform(0.1, 0.4)
    vals[1] = rng.uniform(0.7, 1.0)
    return vals


def run_selftest(seed: int = 0, sets: int = 100) -> SelftestReport:
    """Monotonicity along the alpha grid plus limit agreement, seeded."""
    if sets < 1:
        raise ValueError("need at least one set")
    rng = random.Random(seed)
    failures: list[str] = []
    mono_checks = 0
    limit_checks = 0

    for i in range(sets):
        vals, constant = _monotone_set(rng, i)
        grid = [power_mean(vals, a).value for a in ALPHA_GRID]
        lo = mean_limit(vals, MeanLimit.MINUS_INF).value
        hi = mean_limit(vals, MeanLimit.PLUS_INF).value
        for a_prev, a_next, v_prev, v_next in zip(
            ALPHA_GRID, ALPHA_GRID[1:], grid, grid[1:]
        ):
            mono_checks += 1
            if v_next < v_prev - MONOTONE_TOL:
                failures.append(
                    f"set {i}: mean at alpha={a_next} below alpha={a_prev} "
                    f"({v_next!r} < {v_prev!r})"
                )
        mono_checks += 1
        if not (lo <= min(grid) and max(grid) <= hi):
            failures.append(f"set {i}: grid means escape the [min, max] bracket")
        spread = max(grid) - min(grid)
        mono_checks += 1
        if constant:
            if spread > MONOTONE_TOL:
                failures.append(f"set {i}: constant set spread {spread!r}")
        elif spread <= MONOTONE_TOL:
            failures.append(f"set {i}: distinct values but flat grid")

        vals = _limit_set(rng)
        geo = mean_limit(vals, MeanLimit.ZERO).value
        for a in (1e-6, -1e-6):
            limit_checks += 1
            if abs(power_mean(vals, a).value - geo) > ZERO_LIMIT_REL_TOL * geo:
                failures.append(f"set {i}: alpha={a} mean far from geometric mean")
        top = max(vals)
        limit_checks += 1
        if abs(power_mean(vals, SUP_ALPHA).value - top) > SUP_REL_TOL * top:
            failures.append(f"set {i}: alpha={SUP_ALPHA} mean not within 2% of max")
        limit_checks += 2
        if mean_limit(vals, MeanLimit.PLUS_INF).value != top:
            failures.append(f"set {i}: PLUS_INF limit is not the exact max")
        if mean_limit(vals, MeanLimit.MINUS_INF).value != min(vals):
            failures.append(f"set {i}: MINUS_INF limit is not the exact min")

    return SelftestReport(
        seed=seed,
        sets=sets,
        monotonicity_checks=mono_checks,
        limit_checks=limit_checks,
        failures=failures,
    )

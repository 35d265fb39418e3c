"""Analytic and Monte-Carlo yield analysis for two-source draft trees.

Under the independence model — spine tokens accepted with probability ``p_s``,
branch tokens with ``p_t < p_s`` — the expected tokens per verification call
of a spine tree with branch widths ``w_0..w_{m-1}`` and branch depth ``D`` is
bounded below by

    sum_{i=1..m} p_s^i                                   (spine term)
  + sum_{i=0..m-1} p_s^i (1-p_s) phi(w_i) (1 + ell_bar)  (synergy term)
  + 1                                                    (bonus token)

with ``phi(w) = 1 - (1-p_t)^w`` and ``ell_bar = sum_{k=1..D-1} p_t^k``. The
bound is tight when branches extend as independent chains. This module
evaluates the bound, simulates the acceptance process directly to validate it
(on a ``tree.SpineTree``, walked in its ``children`` order as the verifier
walks it), computes balanced k-ary ("isotropic") reference yields, and scans
for spine-over-isotropic dominance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .models import Spec
from .tree import MAX_DEPTH, NODE_BUDGET, ROOT, DraftNode, Source, SpineTree, iso_levels, linear_allocation

__all__ = [
    "AcceptanceModel",
    "TreeShape",
    "YieldReport",
    "phi",
    "ell_bar",
    "synergy",
    "spine_yield",
    "spine_shape_tree",
    "monte_carlo_yield",
    "iso_yield",
    "best_iso_yield",
    "best_spine_yield",
    "dominance_scan",
    "DominanceRow",
    "BoundSetting",
    "BoundRow",
    "BoundReport",
    "verify_bound",
    "MC_CHUNK",
]

MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class AcceptanceModel:
    """Per-source acceptance probabilities under the independence assumption."""

    p_s: float
    p_t: float

    def __post_init__(self):
        for name, p in (("p_s", self.p_s), ("p_t", self.p_t)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


@dataclass(frozen=True)
class TreeShape:
    """Spine length, per-node branch widths, branch depth, and node budget."""

    m: int
    widths: tuple[int, ...]
    depth: int = MAX_DEPTH
    budget: int = NODE_BUDGET

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("spine length must be >= 0")
        if len(self.widths) != self.m:
            raise ValueError(f"need one width per spine node: m={self.m}, got {len(self.widths)}")
        if any(w < 0 for w in self.widths):
            raise ValueError("branch widths must be >= 0")
        if self.depth < 1:
            raise ValueError("branch depth must be >= 1")
        if self.m + sum(self.widths) > self.budget:
            raise ValueError(
                f"shape exceeds budget: {self.m} + {sum(self.widths)} > {self.budget}"
            )


@dataclass(frozen=True)
class YieldReport:
    """Analytic bound with its components."""

    tau_eq: float
    spine_term: float
    synergy_term: float
    bonus: float = 1.0


def phi(width: int, p_t: float) -> float:
    """Probability that at least one of ``width`` branch tokens is accepted."""
    if width < 0:
        raise ValueError("width must be >= 0")
    return 1.0 - (1.0 - p_t) ** width


def ell_bar(p_t: float, depth: int) -> float:
    """Expected chain extension behind an accepted branch token.

    ``sum_{k=1..depth-1} p_t^k``; ranges from 0 (p_t -> 0) to depth-1 (p_t -> 1).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return sum(p_t**k for k in range(1, depth))


def synergy(p_s: float, p_t: float, widths: Sequence[int], depth: int) -> float:
    """The continuation-synergy term of the yield bound."""
    extension = 1.0 + ell_bar(p_t, depth)
    return sum(
        p_s**i * (1.0 - p_s) * phi(w, p_t) * extension for i, w in enumerate(widths)
    )


def spine_yield(model: AcceptanceModel, shape: TreeShape) -> YieldReport:
    """Analytic lower bound on expected tokens per call for a spine tree."""
    spine_term = sum(model.p_s**i for i in range(1, shape.m + 1))
    synergy_term = synergy(model.p_s, model.p_t, shape.widths, shape.depth)
    return YieldReport(
        tau_eq=spine_term + synergy_term + 1.0,
        spine_term=spine_term,
        synergy_term=synergy_term,
    )


def spine_shape_tree(shape: TreeShape) -> SpineTree:
    """Canonical tree for a shape: spine chain + independent branch chains.

    Branches at spine node i (i=0 is the anchor) are ``widths[i]`` transition
    tokens, each extended as a chain to depth ``shape.depth`` below its
    branching point. This is the structure on which the bound is tight. Every
    token is 0: the simulation reads only parents and sources.
    """
    nodes = [DraftNode(0, Source.CONTEXT, ROOT)]
    nodes += [DraftNode(0, Source.CONTEXT, i) for i in range(shape.m)]
    for branch_point, width in enumerate(shape.widths):  # spine node i is node i
        for _ in range(width):
            parent = branch_point
            for _ in range(shape.depth):
                nodes.append(DraftNode(0, Source.TRANSITION, parent))
                parent = len(nodes) - 1
    return SpineTree(nodes=nodes, spine=list(range(shape.m + 1)))


def monte_carlo_yield(
    model: AcceptanceModel,
    tree: SpineTree,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Simulate the acceptance walk; returns (mean tau, standard error).

    Per trial every node is independently accepted (``p_s`` for context
    nodes, ``p_t`` otherwise) and a greedy walk advances from the root into
    the first accepted child in ``tree.children`` order, the verifier's walk
    order; tau is the walk length plus one bonus token. Every child of each
    node a trial's walk reaches draws one uniform, including children after
    the first accepted one; nodes the walk never reaches draw nothing. The
    stream is consumed chunk by chunk (``MC_CHUNK`` trials), then level by
    level, then by node id ascending, then one row per trial on that node,
    each row's draws in child order. A fixed seed and that order make
    results bit-reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    rate = {Source.CONTEXT: model.p_s, Source.TRANSITION: model.p_t}
    prob = np.array([rate[n.source] for n in tree.nodes], dtype=np.float64)
    kids = [np.asarray(c, dtype=np.int64) for c in tree.children]
    kid_prob = [prob[k] for k in kids]
    total = 0.0
    total_sq = 0.0
    remaining = trials
    while remaining > 0:
        n = min(remaining, MC_CHUNK)
        remaining -= n
        # Trials on one node draw the same shape of row, so a level is fully
        # described by how many walking trials sit on each node; a trial that
        # stops on level d has tau d + 1.
        count = np.zeros(len(kids), dtype=np.int64)
        count[0] = walking = n
        tau = 1
        chunk_sum = chunk_sq = 0
        while walking:
            arrived = np.zeros_like(count)
            for v in np.flatnonzero(count):
                k = kids[v]
                if not k.size:
                    continue
                rows = int(count[v])
                bits = rng.random((rows, k.size)) < kid_prob[v]
                first = bits.argmax(axis=1)
                hit = bits[np.arange(rows), first]
                arrived[k] = np.bincount(first[hit], minlength=k.size)
            moved = int(arrived.sum())
            chunk_sum += (walking - moved) * tau
            chunk_sq += (walking - moved) * tau * tau
            count, walking = arrived, moved
            tau += 1
        total += float(chunk_sum)
        total_sq += float(chunk_sq)
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    var = max((total_sq - trials * mean * mean) / (trials - 1), 0.0)
    return mean, math.sqrt(var / trials)


def iso_yield(fanout: int, budget: int, p_t: float) -> float:
    """Expected tokens per call for a balanced k-ary single-rate tree.

    Complete levels only (``tree.iso_levels``); each level advances with
    probability ``1 - (1-p_t)^k``.
    """
    levels, _total = iso_levels(fanout, budget)
    q = 1.0 - (1.0 - p_t) ** fanout
    return sum(q**d for d in range(1, levels + 1)) + 1.0


def best_iso_yield(budget: int, p_t: float) -> tuple[float, int]:
    """Best balanced k-ary yield over integer fan-outs 1..budget."""
    best = (-math.inf, 0)
    for k in range(1, budget + 1):
        tau = iso_yield(k, budget, p_t)
        if tau > best[0]:
            best = (tau, k)
    return best


def best_spine_yield(
    p_s: float, p_t: float, budget: int, depth: int = MAX_DEPTH
) -> tuple[float, int, tuple[int, ...]]:
    """Best spine-tree analytic yield over spine lengths 1..budget.

    Branch widths follow the depth-linear optimum for each candidate length.
    """
    best: tuple[float, int, tuple[int, ...]] = (-math.inf, 0, ())
    for m in range(1, budget + 1):
        widths = tuple(linear_allocation(p_s, p_t, m, budget - m))
        report = spine_yield(
            AcceptanceModel(p_s=p_s, p_t=p_t),
            TreeShape(m=m, widths=widths, depth=depth, budget=budget),
        )
        if report.tau_eq > best[0]:
            best = (report.tau_eq, m, widths)
    return best


@dataclass(frozen=True)
class DominanceRow:
    p_s: float
    p_t: float
    budget: int
    tau_spine: float
    best_m: int
    tau_iso: float
    best_k: int

    @property
    def gap(self) -> float:
        return self.tau_spine - self.tau_iso

    @property
    def violation(self) -> bool:
        return self.p_s > self.p_t and self.gap <= 0.0


def dominance_scan(
    points: Iterable[tuple[float, float, int]], depth: int = MAX_DEPTH
) -> list[DominanceRow]:
    """Best-spine vs best-isotropic yield over a (p_s, p_t, budget) grid."""
    rows = []
    for p_s, p_t, budget in points:
        if p_s < p_t:
            raise ValueError(f"grid point has p_s {p_s} < p_t {p_t}")
        if budget < 1:
            raise ValueError(f"grid point has budget {budget} < 1")
        tau_spine, best_m, _w = best_spine_yield(p_s, p_t, budget, depth)
        tau_iso, best_k = best_iso_yield(budget, p_t)
        rows.append(
            DominanceRow(
                p_s=p_s, p_t=p_t, budget=budget,
                tau_spine=tau_spine, best_m=best_m, tau_iso=tau_iso, best_k=best_k,
            )
        )
    return rows


@dataclass(frozen=True)
class BoundSetting(Spec):
    """One bound-verification setting: rates, shape, and a measured yield.

    ``tau_meas``/``stderr`` come from engine logs; leave them None to have
    ``verify_bound`` fill them by simulating the canonical tree.
    """

    setting_id: str
    p_s: float
    p_t: float
    m: int
    budget: int
    depth: int = MAX_DEPTH
    tau_meas: float | None = None
    stderr: float | None = None

    def __post_init__(self):
        super().__post_init__()
        AcceptanceModel(p_s=self.p_s, p_t=self.p_t)
        finite = all(0 <= v < math.inf for v in (self.tau_meas, self.stderr) if v is not None)
        if not 0 <= self.m <= self.budget or self.budget < 1 or self.depth < 1 or not finite:
            raise ValueError(f"need 0 <= m <= budget, budget, depth >= 1, measurements in [0, inf): {self}")


@dataclass(frozen=True)
class BoundRow:
    setting: BoundSetting
    tau_eq: float
    tau_meas: float
    stderr: float
    tau_iso: float

    @property
    def ratio(self) -> float:
        return self.tau_eq / self.tau_iso

    @property
    def violation(self) -> bool:
        return self.tau_eq > self.tau_meas + 3.0 * self.stderr


@dataclass(frozen=True)
class BoundReport:
    rows: tuple[BoundRow, ...]
    violations: int
    pearson_r: float | None


def _bound_widths(setting: BoundSetting) -> tuple[int, ...]:
    if setting.m == 0:
        return ()
    branch_budget = setting.budget - setting.m
    # Measured logs can leave the 0 < p_t <= p_s < 1 regime. Spread evenly
    # there: the bound holds for any widths, only optimality needs the regime.
    if not 0.0 < setting.p_t <= setting.p_s < 1.0:
        base, extra = divmod(branch_budget, setting.m)
        return tuple(base + (1 if i < extra else 0) for i in range(setting.m))
    return tuple(linear_allocation(setting.p_s, setting.p_t, setting.m, branch_budget))


def verify_bound(
    settings: Sequence[BoundSetting],
    iso_fanout: int = 3,
    trials: int = 100_000,
    seed: int = 0,
) -> BoundReport:
    """Check the yield lower bound per setting and compare to the iso yield.

    Settings without a measured yield are simulated on the canonical spine
    tree with the optimal linear allocation. Reports the heterogeneity
    correlation of the analytic gain (tau_eq / tau_iso) against p_s / p_t over
    settings with ``p_t > 0``; the gain is always finite, as ``tau_iso >= 1``.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rows: list[BoundRow] = []
    for i, setting in enumerate(settings):
        widths = _bound_widths(setting)
        model = AcceptanceModel(p_s=setting.p_s, p_t=setting.p_t)
        shape = TreeShape(m=setting.m, widths=widths, depth=setting.depth, budget=setting.budget)
        report = spine_yield(model, shape)
        tau_meas, stderr = setting.tau_meas, setting.stderr
        if tau_meas is None:
            tau_meas, stderr = monte_carlo_yield(
                model, spine_shape_tree(shape), trials=trials, seed=seed + i
            )
        rows.append(
            BoundRow(
                setting=setting,
                tau_eq=report.tau_eq,
                tau_meas=tau_meas,
                stderr=stderr if stderr is not None else 0.0,
                tau_iso=iso_yield(iso_fanout, setting.budget, setting.p_t),
            )
        )
    gains, ratios = [], []
    for row in rows:
        if row.setting.p_t > 0.0:
            gains.append(row.ratio)
            ratios.append(row.setting.p_s / row.setting.p_t)
    pearson = None
    if len(gains) >= 3 and np.std(gains) > 0 and np.std(ratios) > 0:
        pearson = float(np.corrcoef(ratios, gains)[0, 1])
    return BoundReport(
        rows=tuple(rows),
        violations=sum(r.violation for r in rows),
        pearson_r=pearson,
    )

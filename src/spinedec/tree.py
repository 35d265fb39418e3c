"""Anisotropic spine-tree construction and draft-tree structures.

A spine tree spends a fixed node budget asymmetrically: a deep chain of
context-matched tokens (the spine) carries the high-acceptance path, while
transition-table alternatives fork off the root and every spine node as wide,
shallow branches. Branch roots are then extended as chains of top successors,
deeper behind higher-scoring candidates.

Also here: the balanced k-ary ("isotropic") baseline tree built from the same
candidate pool, and the depth-linear branch allocation that maximizes the
continuation-synergy yield term under a branch budget.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .adjacency import AdjacencyTable
from .models import ModelQuery

__all__ = [
    "Source",
    "DraftNode",
    "TreeBudget",
    "SpineTree",
    "build_spine_tree",
    "build_iso_tree",
    "confidence_width",
    "iso_levels",
    "linear_allocation",
    "tree_query",
    "NODE_BUDGET",
    "MAX_DEPTH",
]

ROOT = -1
NODE_BUDGET = 60  # B, the node budget of one draft tree
MAX_DEPTH = 6  # D, the depth a branch chain reaches below its branching point


class Source(enum.Enum):
    """Where a draft token came from."""

    CONTEXT = "context"      # copied by n-gram context matching
    TRANSITION = "transition"  # retrieved from the adjacency table


class DraftNode(NamedTuple):
    token: int
    source: Source
    parent: int  # index of parent node; ROOT's parent is -1


@dataclass(frozen=True)
class TreeBudget:
    """Node-budget split for one tree build.

    ``split`` caps the spine at ``b_s <= floor(B*r) < B``; of the remaining
    ``B - 1 - b_s >= 0`` slots a ``1 - rho`` share goes to root branches and
    the rest to spine branches (the root slot itself accounts for the ``- 1``).
    Steps 1-3 of ``build_spine_tree`` keep within these shares, so the budget
    binds in one place: step 4's cap on each branch extension.
    """

    budget: int = NODE_BUDGET
    spine_ratio: float = 0.5
    spine_branch_ratio: float = 0.5
    max_depth: int = MAX_DEPTH

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not (0.0 < self.spine_ratio < 1.0):
            raise ValueError("spine_ratio must be in (0, 1)")
        if not (0.0 < self.spine_branch_ratio < 1.0):
            raise ValueError("spine_branch_ratio must be in (0, 1)")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def split(self, chain_len: int) -> tuple[int, int, int]:
        """Return (b_s, b_r, b_rho) for a draft chain of length ``chain_len``."""
        b_s = min(chain_len, math.floor(self.budget * self.spine_ratio))
        rest = self.budget - 1 - b_s
        b_r = math.floor(rest * (1.0 - self.spine_branch_ratio))
        b_rho = rest - b_r
        return b_s, b_r, b_rho


@dataclass
class SpineTree:
    """Draft nodes in construction order; ``nodes[0]`` is the anchor root.

    The one draft-tree type, walked by the verifier and the simulator alike in
    ``children[v]`` order: context children first, then transition children,
    each by index. That order is derived from the parent pointers alone, after
    a check that every non-root node's parent precedes it.
    """

    nodes: list[DraftNode]
    spine: list[int]  # node indices of the spine chain, root first
    children: list[list[int]] = field(init=False)

    def __post_init__(self):
        context: list[list[int]] = [[] for _ in self.nodes]
        transition: list[list[int]] = [[] for _ in self.nodes]
        for i, node in enumerate(self.nodes[1:], start=1):
            if not 0 <= node.parent < i:
                raise ValueError(f"node {i} has invalid parent {node.parent}")
            (context if node.source is Source.CONTEXT else transition)[node.parent].append(i)
        self.children = [c + t for c, t in zip(context, transition)]

    def __len__(self) -> int:
        return len(self.nodes)


def tree_query(tree: SpineTree, base: Sequence[int], scored_from: int | None = None) -> ModelQuery:
    """Convert a tree to a scoring query; the root is the base's last token.

    Query node ``i - 1`` is tree node ``i``, so a parent index shifts by one
    and the root's children get ``-1``, the last base token. Base positions
    are scored from ``scored_from``, by default the root's alone.
    """
    if not base or base[-1] != tree.nodes[0].token:
        raise ValueError("tree root must equal the last base token")
    nodes = tuple((n.token, n.parent - 1) for n in tree.nodes[1:])
    start = len(base) - 1 if scored_from is None else scored_from
    return ModelQuery(base=tuple(base), nodes=nodes, scored_from=start)


class _Builder:
    def __init__(self, anchor: int, prev_token: int | None):
        self.nodes: list[DraftNode] = [DraftNode(anchor, Source.CONTEXT, ROOT)]
        self.child_tokens: list[set[int]] = [set()]
        self.prev_token = prev_token

    def attach(self, parent: int, token: int, source: Source) -> int | None:
        """Add a child unless a sibling has its token; the budget binds in the builders, not here."""
        if token in self.child_tokens[parent]:
            return None
        self.nodes.append(DraftNode(token, source, parent))
        self.child_tokens.append(set())
        self.child_tokens[parent].add(token)
        return len(self.nodes) - 1

    def successors(self, table: AdjacencyTable, index: int) -> list[tuple[int, float]]:
        """Table successors of a node, keyed by its parent's token and its own."""
        node = self.nodes[index]
        prev = self.prev_token if node.parent == ROOT else self.nodes[node.parent].token
        return table.successors(prev, node.token)


def confidence_width(score: float, sibling_scores: Sequence[float], base_allocation: int) -> int:
    """Children allowance for a successor, scaled by score vs. best sibling.

    ``round(base_allocation * score / max(sibling_scores))`` with half-up
    rounding. The scores come from the table, so they already clear its
    threshold.
    """
    if base_allocation < 0:
        raise ValueError("base_allocation must be >= 0")
    best = max(sibling_scores) if sibling_scores else score
    if best <= 0:
        return 0
    return int(base_allocation * score / best + 0.5)


def build_spine_tree(
    anchor: int,
    chain: Sequence[int],
    table: AdjacencyTable,
    budget: TreeBudget,
    prev_token: int | None = None,
    spine_source: Source = Source.CONTEXT,
    spine_branches: bool = True,
) -> SpineTree:
    """Assemble the anisotropic draft tree for one decode cycle.

    Step 1 lays the spine chain, step 2 attaches root branches, and step 3
    spreads spine branches with harmonically decaying widths. Step 4 extends
    the branch roots, highest-scoring first, each as the table's top-1 chain
    (``AdjacencyTable.chain``) of up to its confidence allowance, the depth cap
    less one and the budget left. An empty chain yields a transition-only
    tree; an empty table, a bare chain.
    """
    b = _Builder(anchor, prev_token)
    b_s, b_r, b_rho = budget.split(len(chain))

    # Step 1: spine chain; no sibling can refuse a new node, so every token attaches.
    parent = 0
    for token in chain[:b_s]:
        parent = b.attach(parent, token, spine_source)
    spine = list(range(len(b.nodes)))

    # Branch roots to extend in step 4: (score, index, chain allowance).
    branch_roots: list[tuple[float, int, int]] = []

    def attach_branches(parent_index: int, count: int) -> None:
        taken: list[tuple[int, float]] = []
        for token, score in b.successors(table, parent_index):
            if len(taken) >= count:
                break
            index = b.attach(parent_index, token, Source.TRANSITION)
            if index is not None:
                taken.append((index, score))
        sibling_scores = [s for _, s in taken]
        for index, score in taken:
            branch_roots.append((score, index, confidence_width(score, sibling_scores, count)))

    # Step 2: root branches.
    attach_branches(0, b_r)

    # Step 3: spine branches, 1/i harmonic decay over spine nodes.
    if spine_branches:
        spine_chain = spine[1:]
        harmonic = sum(1.0 / j for j in range(1, len(spine_chain) + 1))
        for i, node_index in enumerate(spine_chain, start=1):
            attach_branches(node_index, math.floor(b_rho * (1.0 / i) / harmonic))

    # Step 4: a branch root has no children yet, so no sibling can refuse a
    # chain token and the table's top-1 chain is its whole extension.
    for _score, leaf, allowance in sorted(branch_roots, key=lambda r: (-r[0], r[1])):
        node = b.nodes[leaf]
        length = min(allowance, budget.max_depth - 1, budget.budget - len(b.nodes))
        for token in table.chain(b.nodes[node.parent].token, node.token, length):
            leaf = b.attach(leaf, token, Source.TRANSITION)

    return SpineTree(nodes=b.nodes, spine=spine)


def build_iso_tree(
    anchor: int,
    fanout: int,
    node_budget: int,
    chain: Sequence[int],
    table: AdjacencyTable,
    prev_token: int | None = None,
) -> SpineTree:
    """Balanced k-ary baseline tree over the same candidate pool.

    Levels are filled completely (``iso_levels``) and leftover budget stays
    unused. At each node the candidate pool is the context-match continuation
    (when the node sits on the matched chain) followed by table successors,
    by score.
    """
    levels, _total = iso_levels(fanout, node_budget)
    b = _Builder(anchor, prev_token)

    frontier = [0]
    for depth in range(1, levels + 1):
        next_frontier: list[int] = []
        for node_index in frontier:
            # The root and the matched chain's path are the only context nodes.
            pool = [(t, Source.TRANSITION) for t, _s in b.successors(table, node_index)]
            if b.nodes[node_index].source is Source.CONTEXT and depth <= len(chain):
                pool.insert(0, (chain[depth - 1], Source.CONTEXT))
            for token, source in pool:
                if len(b.child_tokens[node_index]) >= fanout:
                    break
                index = b.attach(node_index, token, source)
                if index is not None:
                    next_frontier.append(index)
        frontier = next_frontier
    return SpineTree(nodes=b.nodes, spine=[0])


def iso_levels(fanout: int, budget: int) -> tuple[int, int]:
    """Complete k-ary levels: the largest D with ``sum(k^d, d=1..D) <= budget``, and that sum."""
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    levels = total = 0
    while total + fanout ** (levels + 1) <= budget:
        levels += 1
        total += fanout**levels
    return levels, total


def linear_allocation(p_s: float, p_t: float, m: int, branch_budget: int) -> list[int]:
    """Depth-linear branch widths maximizing the continuation-synergy term.

    Continuous solution: ``w_i = w_0 - i * |ln p_s| / |ln(1 - p_t)|`` with
    ``w_0`` fixed by the budget, clipped at 0, then rounded to integers that
    preserve the total (largest-remainder rounding, ties to shallower nodes).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if branch_budget < 0:
        raise ValueError("branch budget must be >= 0")
    if not (0.0 < p_t < 1.0) or not (0.0 < p_s < 1.0):
        raise ValueError("acceptance rates must lie in (0, 1)")
    if p_s < p_t:
        raise ValueError(f"spine rate {p_s} must be >= branch rate {p_t}")
    if branch_budget == 0:
        return [0] * m
    slope = abs(math.log(p_s)) / abs(math.log(1.0 - p_t))
    active = m
    w0 = float(branch_budget)
    while active >= 1:
        w0 = (branch_budget + slope * active * (active - 1) / 2.0) / active
        if w0 - slope * (active - 1) >= 0.0:
            break
        active -= 1
    cont = [max(w0 - slope * i, 0.0) if i < active else 0.0 for i in range(m)]
    floors = [math.floor(w) for w in cont]
    remainder = branch_budget - sum(floors)
    fractions = sorted(
        ((cont[i] - floors[i], -i) for i in range(m)), reverse=True
    )
    widths = list(floors)
    for frac, neg_i in fractions[:remainder]:
        widths[-neg_i] += 1
    return widths

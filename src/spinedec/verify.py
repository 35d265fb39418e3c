"""Single-pass draft verification: the unified greedy walk.

One model call scores the whole draft; the walk then follows matching children
from the root in ``SpineTree.children`` order (context children first, then
transition children, each by index), and stops at the first position where
nothing matches. The model's greedy prediction at the stopping point is
appended as a bonus token, so every cycle makes progress. A bypass chain is
verified as a tree with one child per node, and an AR step as the empty chain,
a root-only walk whose one token is the bonus, so every model call takes this
one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .models import ModelResponse, TargetModel
from .tree import ROOT, DraftNode, Source, SpineTree, tree_query

__all__ = ["WalkResult", "unified_greedy_walk", "linear_verify"]


@dataclass(frozen=True)
class WalkResult:
    """The verified tree, its accepted root path and its tokens."""

    tree: SpineTree
    accepted: tuple[int, ...]  # node indices along the accepted root path
    tokens: tuple[int, ...]    # accepted tokens followed by the bonus token
    response: ModelResponse    # the single scoring pass behind the walk


def unified_greedy_walk(
    model: TargetModel, tree: SpineTree, base: Sequence[int], scored_from: int | None = None
) -> WalkResult:
    """Verify a draft tree with one model call.

    From the root, advance to the first child in ``tree.children`` order whose
    token equals the greedy prediction at the current node, else stop. The
    bonus is the prediction at the last accepted position. ``scored_from`` is
    passed to ``tree_query``.
    """
    response = model.score_tree(tree_query(tree, base, scored_from))
    predictions = (response.base[-1], *response.nodes)  # one per tree node, root first
    accepted: list[int] = []
    current = 0
    while True:
        target = predictions[current].token
        for child in tree.children[current]:
            if tree.nodes[child].token == target:
                break
        else:
            break
        accepted.append(child)
        current = child
    bonus = predictions[current].token
    return WalkResult(
        tree=tree,
        accepted=tuple(accepted),
        tokens=tuple(tree.nodes[i].token for i in accepted) + (bonus,),
        response=response,
    )


def linear_verify(
    model: TargetModel,
    chain: Sequence[int],
    base: Sequence[int],
    source: Source = Source.CONTEXT,
    scored_from: int | None = None,
) -> WalkResult:
    """Verify a draft chain in one model call, as a tree whose spine is every node.

    Accepts the longest prefix where each chain token equals the greedy
    prediction at its predecessor; the bonus is the prediction at the last
    accepted position (so even a first-token mismatch yields one token). The
    empty chain is one AR step: only the bonus.
    """
    if not base:
        raise ValueError("base must contain at least one token")
    nodes = [DraftNode(base[-1], Source.CONTEXT, ROOT)]
    nodes += [DraftNode(token, source, i) for i, token in enumerate(chain)]
    tree = SpineTree(nodes=nodes, spine=list(range(len(nodes))))
    return unified_greedy_walk(model, tree, base, scored_from)

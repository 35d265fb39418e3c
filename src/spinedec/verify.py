"""Single-pass draft verification: the unified greedy walk.

One model call scores the whole draft; the walk then follows matching children
from the root in ``SpineTree.children`` order (context children first, then
transition children, each by index), and stops at the first position where
nothing matches. The model's greedy prediction at the stopping point is
appended as a bonus token, so every cycle makes progress. A bypass chain is
verified as a tree with one child per node, so every draft takes this one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .models import ModelResponse, Prediction, TargetModel
from .tree import ROOT, DraftNode, Source, SpineTree, tree_query

__all__ = ["PathCategory", "WalkResult", "unified_greedy_walk", "linear_verify"]


class PathCategory:
    """How the accepted path used the two draft sources."""

    EMPTY = "empty"
    PURE_CONTEXT = "pure_context"
    SPINE_CONTINUATION = "spine_continuation"
    PURE_TRANSITION = "pure_transition"


@dataclass(frozen=True)
class WalkResult:
    """The verified tree, its accepted root path, its tokens and their source category."""

    tree: SpineTree
    accepted: tuple[int, ...]  # node indices along the accepted root path
    tokens: tuple[int, ...]    # accepted tokens followed by the bonus token
    category: str
    response: ModelResponse    # the single scoring pass behind the walk


def _categorize(sources: Sequence[Source]) -> str:
    if not sources:
        return PathCategory.EMPTY
    if sources[0] is not Source.CONTEXT:
        return PathCategory.PURE_TRANSITION
    if all(s is Source.CONTEXT for s in sources):
        return PathCategory.PURE_CONTEXT
    return PathCategory.SPINE_CONTINUATION


def unified_greedy_walk(model: TargetModel, tree: SpineTree, base: Sequence[int]) -> WalkResult:
    """Verify a draft tree with one model call.

    From the root, advance to the first child in ``tree.children`` order whose
    token equals the greedy prediction at the current node, else stop. The
    bonus is the prediction at the last accepted position.
    """
    response = model.score_tree(tree_query(tree, base))

    def prediction(node_index: int) -> Prediction:
        if node_index == 0:
            return response.base[-1]
        return response.nodes[node_index - 1]

    accepted: list[int] = []
    current = 0
    while True:
        target = prediction(current).token
        for child in tree.children[current]:
            if tree.nodes[child].token == target:
                break
        else:
            break
        accepted.append(child)
        current = child
    bonus = prediction(current).token
    return WalkResult(
        tree=tree,
        accepted=tuple(accepted),
        tokens=tuple(tree.nodes[i].token for i in accepted) + (bonus,),
        category=_categorize([tree.nodes[i].source for i in accepted]),
        response=response,
    )


def linear_verify(
    model: TargetModel,
    chain: Sequence[int],
    base: Sequence[int],
    source: Source = Source.CONTEXT,
) -> WalkResult:
    """Verify a draft chain in one model call, as a tree whose spine is every node.

    Accepts the longest prefix where each chain token equals the greedy
    prediction at its predecessor; the bonus is the prediction at the last
    accepted position (so even a first-token mismatch yields one token).
    """
    if not chain or not base:
        raise ValueError("chain and base must each contain at least one token")
    nodes = [DraftNode(base[-1], Source.CONTEXT, ROOT, 0)]
    nodes += [DraftNode(token, source, i, i + 1) for i, token in enumerate(chain)]
    return unified_greedy_walk(model, SpineTree(nodes=nodes, spine=list(range(len(nodes)))), base)

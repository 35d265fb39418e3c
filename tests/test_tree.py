from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depths
from spinedec.adjacency import AdjacencyTable
from spinedec.models import SyntheticModelSpec, build_synthetic
from spinedec.theory import iso_yield, synergy
from spinedec.tree import (
    ROOT,
    Source,
    TreeBudget,
    build_iso_tree,
    build_spine_tree,
    confidence_width,
    iso_levels,
    linear_allocation,
    tree_query,
)


def saturated_table(vocab: int = 40, top_k: int = 10, seed: int = 5) -> AdjacencyTable:
    """A table with a full successor list for every unigram and bigram key."""
    rng = random.Random(seed)
    table = AdjacencyTable(top_k=top_k)
    for cur in range(vocab):
        tokens = rng.sample(range(vocab), top_k)
        table.harvest([(None, cur, [(t, 0.9 - 0.05 * i) for i, t in enumerate(tokens)])])
        for prev in range(vocab):
            tokens = rng.sample(range(vocab), top_k)
            table.harvest([(prev, cur, [(t, 0.9 - 0.05 * i) for i, t in enumerate(tokens)])])
    return table


def test_budget_split_matches_hand_trace():
    budget = TreeBudget(budget=8, spine_ratio=0.5, spine_branch_ratio=0.5)
    assert budget.split(2) == (2, 2, 3)
    # Degenerate chain: everything beyond the root goes to branches.
    assert budget.split(0) == (0, 3, 4)


def test_hand_traced_small_tree():
    # chain (4,5), B=8, r=0.5, rho=0.5 -> spine 2, root branches 2, spine branches (2,1).
    table = AdjacencyTable()
    table.harvest(
        [
            (0, 1, [(7, 0.5), (8, 0.3), (4, 0.2)]),   # anchor context; 4 duplicates the spine
            (1, 4, [(9, 0.4), (5, 0.35), (10, 0.2)]),  # spine node 1; 5 duplicates d_2
            (4, 5, [(11, 0.6)]),                       # spine node 2
        ]
    )
    tree = build_spine_tree(1, (4, 5), table, TreeBudget(budget=8), prev_token=0)
    assert len(tree) == 8
    assert [tree.nodes[i].token for i in tree.spine] == [1, 4, 5]
    root_children = [tree.nodes[i].token for i in tree.children[0]]
    assert root_children == [4, 7, 8]  # spine child first, then branches; 4 not duplicated
    spine1_children = [tree.nodes[i].token for i in tree.children[tree.spine[1]]]
    assert spine1_children == [5, 9, 10]  # d_2 excluded from branches
    spine2_children = [tree.nodes[i].token for i in tree.children[tree.spine[2]]]
    assert spine2_children == [11]


def test_harmonic_allocation_three_one_one():
    # b_rho = 6 over a 3-node spine: floor(6 * (1/i) / H_3) = (3, 1, 1).
    table = saturated_table()
    budget = TreeBudget(budget=16, spine_ratio=0.25, spine_branch_ratio=0.5)
    assert budget.split(3) == (3, 6, 6)
    chain = (1, 2, 3)
    tree = build_spine_tree(0, chain, table, budget, prev_token=None, spine_branches=True)
    per_spine_branches = []
    for node_index in tree.spine[1:]:
        kids = [i for i in tree.children[node_index] if tree.nodes[i].source is Source.TRANSITION]
        per_spine_branches.append(len(kids))
    assert per_spine_branches == [3, 1, 1]
    assert per_spine_branches == sorted(per_spine_branches, reverse=True)


def test_one_slot_spine_branch_budget_branches_the_spine():
    # B=4, r=0.5 over chain (1,): spine 1, root branches 1, spine branches 1.
    # That one slot hangs off spine node 1, not off a root-branch extension.
    budget = TreeBudget(budget=4, spine_ratio=0.5)
    assert budget.split(1) == (1, 1, 1)
    tree = build_spine_tree(0, (1,), saturated_table(), budget, prev_token=None)
    kids = tree.children[tree.spine[1]]
    assert [tree.nodes[i].source for i in kids] == [Source.TRANSITION]


def test_empty_chain_builds_transition_only_tree():
    table = saturated_table()
    tree = build_spine_tree(0, (), table, TreeBudget(budget=20), prev_token=1)
    assert tree.spine == [0]
    assert all(n.source is Source.TRANSITION for n in tree.nodes[1:])
    assert len(tree) <= 20


def test_empty_table_builds_a_bare_chain():
    tree = build_spine_tree(0, (1, 2, 3, 4), AdjacencyTable(), TreeBudget(budget=60), prev_token=None)
    assert len(tree) == 5
    assert [n.token for n in tree.nodes] == [0, 1, 2, 3, 4]
    assert all(n.source is Source.CONTEXT for n in tree.nodes)


def test_table_threshold_is_the_only_score_threshold():
    # 0.005 clears the table's threshold of 0.001, so branch 6 earns an
    # allowance (4 * 0.005 / 0.02 rounds to 1) and is extended like branch 5.
    table = AdjacencyTable(min_score=0.001)
    table.harvest(
        [
            (None, 0, [(5, 0.02), (6, 0.005)]),
            (0, 5, [(8, 0.5)]),
            (0, 6, [(7, 0.5)]),
        ]
    )
    tree = build_spine_tree(0, (), table, TreeBudget(budget=10), prev_token=None)
    by_token = {tree.nodes[i].token: i for i in tree.children[0]}
    assert sorted(by_token) == [5, 6]
    assert [tree.nodes[i].token for i in tree.children[by_token[5]]] == [8]
    assert [tree.nodes[i].token for i in tree.children[by_token[6]]] == [7]


def test_confidence_width_ratio_one_returns_base_allocation():
    assert confidence_width(0.4, [0.4, 0.1], 5) == 5


def test_confidence_width_reads_only_the_sibling_ratio():
    # The table's threshold is the only one: a low score that the table kept
    # gets the allowance its ratio to the best sibling earns.
    assert confidence_width(0.005, [0.01, 0.005], 4) == 2


def test_confidence_width_scales_with_sibling_ratio():
    siblings = [0.5, 0.25]
    assert [confidence_width(s, siblings, 4) for s in siblings] == [4, 2]


def test_confidence_width_rounds_half_up():
    assert confidence_width(0.25, [0.4], 4) == 3  # 4 * 0.625 = 2.5


def test_confidence_width_rejects_negative_allocation():
    with pytest.raises(ValueError):
        confidence_width(0.5, [0.5], -1)


def test_spine_is_capped_by_ratio():
    chain = tuple(range(1, 21))
    budget = TreeBudget(budget=60, spine_ratio=0.15)
    tree = build_spine_tree(0, chain, AdjacencyTable(), budget, prev_token=None)
    assert len(tree.spine) - 1 == 9  # floor(60 * 0.15)


def test_disable_spine_branches_skips_step_three():
    table = saturated_table()
    tree = build_spine_tree(
        0, (1, 2, 3), table, TreeBudget(budget=30), prev_token=None, spine_branches=False
    )
    for node_index in tree.spine[1:-1]:
        kids = tree.children[node_index]
        # Only the spine continuation hangs off interior spine nodes.
        assert all(tree.nodes[i].source is Source.CONTEXT for i in kids)


def test_branch_depth_never_exceeds_cap():
    table = saturated_table()
    budget = TreeBudget(budget=60, max_depth=4)
    tree = build_spine_tree(0, (1, 2), table, budget, prev_token=3)
    for node in tree.nodes:
        if node.source is Source.TRANSITION:
            # Walk up to the branching point (first CONTEXT ancestor).
            depth_below = 1
            parent = node.parent
            while tree.nodes[parent].source is Source.TRANSITION:
                depth_below += 1
                parent = tree.nodes[parent].parent
            assert depth_below <= budget.max_depth


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    budget=st.integers(2, 60),
    ratio=st.floats(0.1, 0.9),
    chain_len=st.integers(0, 20),
    spine_branches=st.booleans(),
    swap=st.booleans(),
)
def test_budget_and_structure_invariants_fuzz(seed, budget, ratio, chain_len, spine_branches, swap):
    rng = random.Random(seed)
    table = AdjacencyTable(top_k=6)
    for _ in range(rng.randint(0, 60)):
        key_prev, key_cur = rng.choice((None, rng.randrange(24))), rng.randrange(24)
        table.harvest(
            [(key_prev, key_cur, [(rng.randrange(24), round(rng.uniform(0.02, 0.9), 3)) for _ in range(6)])]
        )
    chain = tuple(rng.randrange(24) for _ in range(chain_len))
    tree_budget = TreeBudget(budget=budget, spine_ratio=ratio)
    anchor, prev = rng.randrange(24), rng.randrange(24)
    tree = build_spine_tree(
        anchor, chain, table, tree_budget, prev_token=prev,
        spine_source=Source.TRANSITION if swap else Source.CONTEXT, spine_branches=spine_branches,
    )

    assert 1 <= len(tree) <= budget
    # The spine spells the chain up to the tier's cap: every token of it attaches.
    spine_tokens = [tree.nodes[i].token for i in tree.spine[1:]]
    assert spine_tokens == list(chain[: min(len(chain), math.floor(budget * ratio))])
    # Spine contiguity: CONTEXT nodes form exactly the root chain (none when swapped).
    context_nodes = {i for i in range(1, len(tree)) if tree.nodes[i].source is Source.CONTEXT}
    assert context_nodes == (set() if swap else set(tree.spine[1:]))
    for a, b in zip(tree.spine, tree.spine[1:]):
        assert tree.nodes[b].parent == a
    # Off the spine, a transition node is extended by its top-1 table successor or not at all.
    for i in set(range(1, len(tree))) - set(tree.spine):
        node, kids = tree.nodes[i], tree.children[i]
        assert node.source is Source.TRANSITION and len(kids) <= 1
        if kids:
            top = table.successors(tree.nodes[node.parent].token, node.token)
            assert [tree.nodes[kids[0]].token] == [t for t, _s in top[:1]]
    # An iso tree's context nodes are one root path spelling the matched chain's prefix.
    fanout = 1 + seed % 5
    iso = build_iso_tree(anchor, fanout, budget, chain, table, prev)
    levels, total = iso_levels(fanout, budget)
    assert len(iso) - 1 <= total
    assert iso.spine == [0]
    path = [i for i in range(1, len(iso)) if iso.nodes[i].source is Source.CONTEXT]
    assert [iso.nodes[i].parent for i in path] == ([0] + path)[: len(path)]
    assert tuple(iso.nodes[i].token for i in path) == chain[: min(len(chain), levels)]
    # No duplicate (parent, token) pairs.
    seen = set()
    for i in range(1, len(tree)):
        key = (tree.nodes[i].parent, tree.nodes[i].token)
        assert key not in seen
        seen.add(key)
    # One scoring call predicts each node from exactly its root-to-node path.
    model = build_synthetic(SyntheticModelSpec("template-repeater", seed, 24, 0.0))
    base = (rng.randrange(24), tree.nodes[0].token)
    response = model.score_tree(tree_query(tree, base))
    for i in range(1, len(tree)):
        path = []
        node = i
        while node != 0:
            path.append(tree.nodes[node].token)
            node = tree.nodes[node].parent
        assert response.nodes[i - 1].token == model.greedy_next(base + tuple(reversed(path)))


def test_tree_query_remaps_ancestors_and_sets_scored_from():
    table = AdjacencyTable()
    table.harvest([(None, 0, [(5, 0.5)])])
    tree = build_spine_tree(3, (4,), table, TreeBudget(budget=8), prev_token=0)
    query = tree_query(tree, (9, 3))
    assert query.scored_from == 1
    assert query.base == (9, 3)
    assert len(query.nodes) == len(tree) - 1
    for (token, parent), node in zip(query.nodes, tree.nodes[1:]):
        assert (token, parent) == (node.token, node.parent - 1)


def test_tree_query_requires_anchor_as_last_base_token():
    tree = build_spine_tree(3, (), AdjacencyTable(), TreeBudget(budget=4), prev_token=None)
    with pytest.raises(ValueError):
        tree_query(tree, (9, 4))


def test_dump_golden():
    table = AdjacencyTable()
    table.harvest([(0, 1, [(7, 0.5)]), (1, 4, [(9, 0.4)])])
    tree = build_spine_tree(1, (4, 5), table, TreeBudget(budget=6), prev_token=0)
    assert [(d, n.token, n.source.value, n.parent) for d, n in zip(depths(tree), tree.nodes)] == [
        (0, 1, "context", ROOT),
        (1, 4, "context", 0),
        (2, 5, "context", 1),
        (1, 7, "transition", 0),
        (2, 9, "transition", 1),
    ]


# --- isotropic baseline ------------------------------------------------------


def test_iso_tree_fills_complete_levels_only():
    table = saturated_table()
    tree = build_iso_tree(0, 3, 60, (), table, prev_token=1)
    assert Counter(depths(tree)[1:]) == {1: 3, 2: 9, 3: 27}  # 39 nodes; 21 budget unused
    tree5 = build_iso_tree(0, 5, 60, (), table, prev_token=1)
    assert Counter(depths(tree5)[1:]) == {1: 5, 2: 25}


def test_iso_tree_places_chain_tokens_first():
    table = saturated_table()
    chain = (1, 2, 3)
    tree = build_iso_tree(0, 3, 60, chain, table, prev_token=1)
    node = 0
    for depth, token in enumerate(chain, start=1):
        kids = tree.children[node]
        assert tree.nodes[kids[0]].token == token
        assert tree.nodes[kids[0]].source is Source.CONTEXT
        node = kids[0]


def test_iso_fanout_validation():
    with pytest.raises(ValueError):
        build_iso_tree(0, 0, 10, (), AdjacencyTable())
    with pytest.raises(ValueError):
        iso_levels(0, 10)


@pytest.mark.parametrize("fanout,budget", [(1, 5), (2, 14), (3, 60), (5, 60), (7, 6)])
def test_iso_tree_and_iso_yield_share_one_level_count(fanout, budget):
    levels, total = iso_levels(fanout, budget)
    assert total == sum(fanout**d for d in range(1, levels + 1)) <= budget
    assert total + fanout ** (levels + 1) > budget
    tree = build_iso_tree(0, fanout, budget, (), saturated_table(), prev_token=1)
    assert len(tree) - 1 == total
    assert max(depths(tree)) == levels
    assert iso_yield(fanout, budget, 1.0) == levels + 1  # p_t = 1 accepts every level


# --- depth-linear allocation --------------------------------------------------


def test_allocation_equal_rates_slope_one():
    assert linear_allocation(0.5, 0.5, 3, 6) == [3, 2, 1]


def test_allocation_collapses_onto_node_zero_for_extreme_slope():
    # slope = |ln 0.21| / |ln 0.967| ~ 46.5
    slope = abs(math.log(0.21)) / abs(math.log(1 - 0.033))
    assert slope > 40
    assert linear_allocation(0.21, 0.033, 3, 6) == [6, 0, 0]


def test_allocation_zero_budget_and_single_node():
    assert linear_allocation(0.5, 0.3, 4, 0) == [0, 0, 0, 0]
    assert linear_allocation(0.5, 0.3, 1, 7) == [7]


def test_allocation_rejects_inverted_rates():
    with pytest.raises(ValueError):
        linear_allocation(0.1, 0.5, 3, 6)
    with pytest.raises(ValueError):
        linear_allocation(0.5, 0.3, 0, 6)
    with pytest.raises(ValueError):
        linear_allocation(1.0, 0.3, 2, 6)


GRID_POINTS = [(0.21, 0.033), (0.4, 0.1), (0.5, 0.3), (0.7, 0.2), (0.9, 0.45)]


def compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("p_s,p_t", GRID_POINTS)
def test_allocation_matches_exhaustive_search(p_s, p_t):
    for m in range(1, 5):
        for branch_budget in range(0, 9):
            widths = linear_allocation(p_s, p_t, m, branch_budget)
            assert sum(widths) == branch_budget
            assert len(widths) == m
            assert widths == sorted(widths, reverse=True)
            got = synergy(p_s, p_t, widths, 6)
            best = max(synergy(p_s, p_t, w, 6) for w in compositions(branch_budget, m))
            assert got >= 0.99 * best - 1e-12

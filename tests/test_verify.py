from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ScriptedModel
from spinedec.engine import CycleRecord
from spinedec.tree import ROOT, DraftNode, Source, SpineTree
from spinedec.verify import linear_verify, unified_greedy_walk


def manual_tree(anchor: int, spec: list[tuple[int, Source, int]]) -> SpineTree:
    """Build a tree directly from (token, source, parent) rows; root index 0."""
    nodes = [DraftNode(anchor, Source.CONTEXT, ROOT)]
    nodes += [DraftNode(token, source, parent) for token, source, parent in spec]
    spine = [0] + [
        i for i, n in enumerate(nodes) if i > 0 and n.source is Source.CONTEXT
    ]
    return SpineTree(nodes=nodes, spine=spine)


# --- linear verification -------------------------------------------------------


def test_linear_verify_accepts_whole_agreeing_chain():
    model = ScriptedModel(vocab_size=32)
    base = (4,)
    chain = (5, 6, 7)  # the unscripted model continues with +1 steps
    result = linear_verify(model, chain, base)
    assert result.tokens[:-1] == chain
    assert result.tokens[-1] == 8
    assert result.tokens == (5, 6, 7, 8)
    assert model.calls == 1


def test_linear_verify_first_token_mismatch_still_progresses():
    model = ScriptedModel(vocab_size=32)
    result = linear_verify(model, (9,), (4,))
    assert result.tokens[:-1] == ()
    assert result.tokens[-1] == 5  # the correct continuation of 4
    assert model.calls == 1


def test_linear_verify_mismatch_at_position_seven():
    model = ScriptedModel(vocab_size=64)
    base = (0,)
    chain = tuple(range(1, 21))  # agrees with the +1 rule everywhere...
    script_path = base + chain[:6]
    model.script[script_path] = 50  # ...except after the 6th chain token
    result = linear_verify(model, chain, base)
    assert len(result.tokens[:-1]) == 6
    assert result.tokens[:-1] == chain[:6]
    assert result.tokens[-1] == 50  # the prediction at position 6
    assert model.calls == 1


def test_linear_verify_empty_chain_is_one_ar_step():
    model = ScriptedModel(vocab_size=32, script={(3, 9, 4): 20, (3,): 30})
    base = (3, 9, 4)
    result = linear_verify(model, (), base)
    assert model.calls == 1
    assert result.accepted == ()
    assert result.tokens == (model.greedy_next(base),) == (20,)
    assert len(result.response.base) == 1
    # Scored from 0, as the first call of a run is: one prediction per position.
    whole = linear_verify(model, (), base, scored_from=0)
    assert [p.token for p in whole.response.base] == [model.greedy_next(base[: i + 1]) for i in range(3)]
    assert whole.tokens == result.tokens


def test_linear_verify_rejects_empty_base():
    with pytest.raises(ValueError):
        linear_verify(ScriptedModel(), (4,), ())


# --- path categories -----------------------------------------------------------


@pytest.mark.parametrize(
    "accepted_context,accepted_transition,category",
    [
        (0, 0, "empty"),
        (2, 0, "pure_context"),
        (1, 2, "spine_continuation"),
        (0, 1, "pure_transition"),
    ],
)
def test_cycle_record_category_follows_from_accepted_counts(accepted_context, accepted_transition, category):
    record = CycleRecord(
        "tree", emitted=3, accepted_emitted=2,
        accepted_context=accepted_context, accepted_transition=accepted_transition,
    )
    assert record.category == category
    assert record.bonus_emitted == 1


# --- unified greedy walk --------------------------------------------------------


def test_walk_no_child_matches_yields_bonus_only():
    model = ScriptedModel(vocab_size=32)
    # Children 9 and 11 under anchor 4; the model wants 5.
    tree = manual_tree(4, [(9, Source.CONTEXT, 0), (11, Source.TRANSITION, 0)])
    result = unified_greedy_walk(model, tree, (4,))
    assert result.accepted == ()
    assert result.tokens[-1] == 5
    assert model.calls == 1


def test_walk_pure_spine_acceptance():
    model = ScriptedModel(vocab_size=32)
    tree = manual_tree(4, [(5, Source.CONTEXT, 0), (6, Source.CONTEXT, 1)])
    result = unified_greedy_walk(model, tree, (4,))
    assert result.tokens == (5, 6, 7)
    assert [tree.nodes[i].source for i in result.accepted] == [Source.CONTEXT] * 2


def test_walk_spine_continuation_recovers_at_the_break():
    # Spine [A=5, B=9]; the model accepts 5 then predicts 20 (not 9); a
    # transition child 20 under node A picks up the path, then 21 follows.
    model = ScriptedModel(vocab_size=32, script={(4, 5): 20, (4, 5, 20): 21})
    tree = manual_tree(
        4,
        [
            (5, Source.CONTEXT, 0),
            (9, Source.CONTEXT, 1),
            (20, Source.TRANSITION, 1),
            (21, Source.TRANSITION, 3),
        ],
    )
    result = unified_greedy_walk(model, tree, (4,))
    assert result.tokens == (5, 20, 21, 22)
    assert [tree.nodes[i].source for i in result.accepted] == [Source.CONTEXT] + [Source.TRANSITION] * 2
    assert model.calls == 1


def test_walk_pure_transition_path():
    model = ScriptedModel(vocab_size=32)
    tree = manual_tree(4, [(9, Source.CONTEXT, 0), (5, Source.TRANSITION, 0)])
    result = unified_greedy_walk(model, tree, (4,))
    assert result.tokens == (5, 6)
    assert [tree.nodes[i].source for i in result.accepted] == [Source.TRANSITION]


def test_walk_prefers_context_child_on_adversarial_tie():
    # Both children carry the matching token 5; the context child must win.
    model = ScriptedModel(vocab_size=32)
    tree = manual_tree(4, [(5, Source.TRANSITION, 0), (5, Source.CONTEXT, 0)])
    result = unified_greedy_walk(model, tree, (4,))
    assert result.accepted == (2,)
    assert tree.nodes[result.accepted[0]].source is Source.CONTEXT


def test_walk_breaks_transition_tie_by_lower_node_index():
    model = ScriptedModel(vocab_size=32)
    tree = manual_tree(4, [(5, Source.TRANSITION, 0), (5, Source.TRANSITION, 0)])
    result = unified_greedy_walk(model, tree, (4,))
    assert result.accepted == (1,)


def test_walk_conditions_on_full_history_not_just_anchor():
    model = ScriptedModel(vocab_size=32, script={(7, 4): 9})
    tree = manual_tree(4, [(5, Source.CONTEXT, 0), (9, Source.TRANSITION, 0)])
    with_seven = unified_greedy_walk(model, tree, (7, 4))
    assert with_seven.tokens[0] == 9
    plain = unified_greedy_walk(model, tree, (4,))
    assert plain.tokens[0] == 5


@st.composite
def scripted_trees(draw):
    """A hand-built tree over tokens 0..3 (sibling ties are common) and a model
    scripted with a random prediction at the anchor and at every node."""
    vocab = 4
    anchor = draw(st.integers(0, vocab - 1))
    rows = []
    for i in range(1, draw(st.integers(1, 12)) + 1):
        token, source = draw(st.integers(0, vocab - 1)), draw(st.sampled_from(Source))
        rows.append((token, source, draw(st.integers(0, i - 1))))
    tree = manual_tree(anchor, rows)
    paths = [(anchor,)]
    for node in tree.nodes[1:]:
        paths.append(paths[node.parent] + (node.token,))
    script = {path: draw(st.integers(0, vocab - 1)) for path in paths}
    return tree, ScriptedModel(vocab_size=vocab + 1, script=script)


def _two_pass_walk(tree: SpineTree, model: ScriptedModel) -> tuple[int, ...]:
    """Reference walk: a matching context child, else a matching transition
    child, lower index first in each pass; children found by parent scan."""
    nodes, accepted, current, path = tree.nodes, [], 0, (tree.nodes[0].token,)
    while True:
        target = model.greedy_next(path)
        chosen = None
        for want in (Source.CONTEXT, Source.TRANSITION):
            matches = [
                i for i in range(1, len(nodes))
                if (nodes[i].parent, nodes[i].source, nodes[i].token) == (current, want, target)
            ]
            chosen = min(matches, default=None)
            if chosen is not None:
                break
        if chosen is None:
            return tuple(accepted)
        accepted.append(chosen)
        current, path = chosen, path + (target,)


@settings(max_examples=200, deadline=None)
@given(case=scripted_trees())
def test_one_pass_walk_matches_two_pass_reference(case):
    tree, model = case
    result = unified_greedy_walk(model, tree, (tree.nodes[0].token,))
    assert result.accepted == _two_pass_walk(tree, model)

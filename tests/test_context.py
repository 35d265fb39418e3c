from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_match
from spinedec.context import ContextIndex


def test_simple_repeat_yields_earlier_continuation():
    result = ContextIndex([1, 2, 3, 4, 5, 1, 2, 3], lengths=(3,)).match()
    assert result.chain == (4, 5)
    assert not result.consensus
    # Cross-check against the independent brute-force scan.
    assert brute_force_match([1, 2, 3, 4, 5, 1, 2, 3], lengths=(3,)) == ((4, 5), False)


def test_no_earlier_occurrence_is_empty_not_an_error():
    result = ContextIndex([7, 8, 9]).match()
    assert result.chain == () and not result.consensus


def test_history_shorter_than_min_length_is_empty():
    assert ContextIndex([1, 2]).match().chain == ()
    assert ContextIndex([]).match().chain == ()


def test_consensus_when_two_lengths_agree_on_first_token():
    history = [9, 1, 2, 3, 4, 8, 1, 2, 3, 4]
    result = ContextIndex(history).match()
    oracle = brute_force_match(history)
    assert result.consensus is True
    assert result.chain == oracle[0] == (8,)


def test_longest_matching_length_wins():
    # n=3, 4, 5 all match with different chains; the chain must come from n=5.
    history = [1, 2, 3, 4, 5, 6, 7, 9, 3, 4, 5, 8, 1, 2, 3, 4, 5]
    result = ContextIndex(history).match()
    assert ContextIndex(history, lengths=(3,)).match().chain == (8, 1, 2)
    assert ContextIndex(history, lengths=(4,)).match().chain == (6, 7, 9, 3, 4, 5, 8, 1)
    assert result.chain == brute_force_match(history)[0] == (6, 7, 9, 3, 4, 5, 8)


def test_most_recent_earlier_occurrence_is_preferred():
    # (1,2,3) occurs at 0 (then 4) and again at 4 (then 9); suffix at 8.
    history = [1, 2, 3, 4, 1, 2, 3, 9, 1, 2, 3]
    result = ContextIndex(history, lengths=(3,)).match()
    assert result.chain == (9,)


def test_continuation_stops_at_the_current_suffix():
    # The earlier occurrence directly precedes the suffix: nothing to copy.
    assert ContextIndex([1, 2, 3, 1, 2, 3], lengths=(3,)).match().chain == ()


def test_overlapping_occurrences():
    # All occurrences touch the suffix: nothing usable to copy.
    assert ContextIndex([1, 1, 1, 1], lengths=(3,)).match().chain == ()
    assert ContextIndex([1, 1, 1, 1, 1], lengths=(3,)).match().chain == ()
    # Three occurrences (two overlapping); the most recent earlier one wins.
    history = [2, 1, 1, 1, 1, 3, 7, 1, 1, 1]
    result = ContextIndex(history, lengths=(3,)).match()
    assert result.chain == (3, 7)
    assert brute_force_match(history, lengths=(3,))[0] == (3, 7)


def test_chain_truncated_to_max_continuation():
    block = list(range(30))
    history = block + [99] + block
    # Suffix (27,28,29) recurs at the end of the first block; its continuation
    # is the separator plus the start of the second block, capped at 20.
    result = ContextIndex(history, lengths=(3,), max_chain=20).match()
    assert result.chain == (99,) + tuple(range(19))
    assert len(result.chain) == 20


def test_empty_delta_is_a_no_op():
    index = ContextIndex([1, 2, 3, 4, 1, 2, 3])
    before = index.match()
    index.extend([])
    assert index.match() == before


def test_incremental_equals_fresh_and_brute_force_over_long_history():
    rng = random.Random(1234)
    tokens = [rng.randrange(8) for _ in range(10_000)]
    index = ContextIndex()
    checkpoints = sorted(rng.sample(range(10, 10_000), 100))
    cursor = 0
    for point in checkpoints:
        index.extend(tokens[cursor:point])
        cursor = point
        incremental = index.match()
        prefix = tokens[:point]
        fresh = ContextIndex(prefix).match()
        oracle = brute_force_match(prefix)
        assert incremental == fresh
        assert (incremental.chain, incremental.consensus) == oracle


def test_invalid_lengths_rejected():
    with pytest.raises(ValueError):
        ContextIndex(lengths=())
    with pytest.raises(ValueError):
        ContextIndex(lengths=(0, 3))


# N-gram lengths (a non-empty subset of 1..5) and chain caps drawn alongside
# the history: short n-grams over a 2-4 token alphabet overlap often, which is
# where the index's one slot per n-gram could pick the wrong occurrence.
LENGTHS = st.sets(st.integers(1, 5), min_size=1).map(lambda s: tuple(sorted(s)))
MAX_CHAINS = st.integers(1, 20)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.integers(0, 3), min_size=0, max_size=60),
    alphabet=st.integers(2, 4),
    lengths=LENGTHS,
    max_chain=MAX_CHAINS,
)
def test_match_properties(raw, alphabet, lengths, max_chain):
    history = [t % alphabet for t in raw]
    result = ContextIndex(history, lengths=lengths, max_chain=max_chain).match()
    oracle = brute_force_match(history, lengths=lengths, max_chain=max_chain)
    assert (result.chain, result.consensus) == oracle
    assert len(result.chain) <= max_chain
    if result.consensus:
        assert len(result.chain) >= 1
    if result.chain:
        # The chain is a verbatim contiguous slice of the history.
        joined = ",".join(map(str, history))
        assert ",".join(map(str, result.chain)) in joined


@settings(max_examples=30, deadline=None)
@given(
    history=st.lists(st.integers(0, 2), min_size=4, max_size=40),
    split=st.integers(0, 40),
    lengths=LENGTHS,
    max_chain=MAX_CHAINS,
)
def test_incremental_equivalence_property(history, split, lengths, max_chain):
    split = min(split, len(history))
    index = ContextIndex(history[:split], lengths=lengths, max_chain=max_chain)
    index.extend(history[split:])
    result = index.match()
    assert result == ContextIndex(history, lengths=lengths, max_chain=max_chain).match()
    assert (result.chain, result.consensus) == brute_force_match(
        history, lengths=lengths, max_chain=max_chain
    )
    assert index.tokens == tuple(history)

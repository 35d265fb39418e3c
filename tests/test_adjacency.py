from __future__ import annotations

import random

import pytest

from spinedec.adjacency import AdjacencyTable


def test_single_harvest_lands_in_both_tiers_sorted():
    table = AdjacencyTable()
    table.harvest([(3, 4, [(9, 0.2), (1, 0.5), (7, 0.3)])])
    expected = [(1, 0.5), (7, 0.3), (9, 0.2)]
    assert table.bigram[(3, 4)] == expected
    assert table.unigram[4] == expected


def test_latest_score_wins_for_a_repeated_successor():
    table = AdjacencyTable()
    table.harvest([(3, 4, [(1, 0.5), (7, 0.3)])])
    table.harvest([(3, 4, [(1, 0.05)])])
    assert table.bigram[(3, 4)] == [(7, 0.3), (1, 0.05)]


def test_one_token_context_feeds_unigram_only():
    table = AdjacencyTable()
    table.harvest([(None, 4, [(1, 0.5)])])
    assert table.unigram[4] == [(1, 0.5)]
    assert not table.bigram


def test_successors_prefers_bigram_and_truncates():
    # The whole stored list comes back, already cut to top_k.
    table = AdjacencyTable(top_k=3)
    table.harvest([(3, 4, [(i, 0.5 - 0.05 * i) for i in range(5)])])
    table.harvest([(None, 4, [(9, 0.9)])])
    assert table.successors(3, 4) == [(0, 0.5), (1, 0.45), (2, 0.4)]
    # Unigram fallback when the bigram key is missing.
    assert table.successors(8, 4) == [(9, 0.9), (0, 0.5), (1, 0.45)]
    assert table.successors(None, 4) == table.unigram[4]


def test_successors_of_an_empty_table():
    assert AdjacencyTable().successors(1, 2) == []
    assert AdjacencyTable().successors(None, 2) == []


def test_successors_bigram_disabled_uses_unigram():
    table = AdjacencyTable(use_bigram=False)
    table.harvest([(1, 2, [(5, 0.5)])])
    assert not table.bigram
    table.unigram[2] = [(8, 0.4)]
    assert table.successors(1, 2) == [(8, 0.4)]


def test_entries_below_threshold_are_dropped():
    # A score exactly at the threshold (0.01) is kept.
    table = AdjacencyTable()
    table.harvest([(3, 4, [(1, 0.5), (2, 0.009), (5, 0.01)])])
    assert table.bigram[(3, 4)] == [(1, 0.5), (5, 0.01)]


def test_truncation_to_top_k():
    table = AdjacencyTable(top_k=3)
    table.harvest([(3, 4, [(i, 0.1 * (9 - i)) for i in range(9)])])
    assert [t for t, _ in table.bigram[(3, 4)]] == [0, 1, 2]


def test_random_harvests_match_reference_dictionary():
    rng = random.Random(77)
    table = AdjacencyTable(top_k=4)
    reference: dict[object, dict[int, float]] = {}

    def reference_merge(key, candidates):
        kept = dict(reference.get(key, {}))
        kept.update(candidates)
        ordered = sorted(kept.items(), key=lambda e: (-e[1], e[0]))[:4]
        reference[key] = {t: s for t, s in ordered if s >= 0.01}

    for _ in range(1000):
        prev, cur = rng.choice((None, rng.randrange(6))), rng.randrange(6)
        candidates = [
            (rng.randrange(12), round(rng.random(), 3)) for _ in range(rng.randint(1, 5))
        ]
        dedup = {}
        for t, s in candidates:
            dedup[t] = s
        candidates = list(dedup.items())
        table.harvest([(prev, cur, candidates)])
        reference_merge(cur, candidates)
        if prev is not None:
            reference_merge((prev, cur), candidates)

    for key, kept in reference.items():
        expected = sorted(kept.items(), key=lambda e: (-e[1], e[0]))
        store = table.bigram if isinstance(key, tuple) else table.unigram
        assert store.get(key, []) == expected, key
    # Invariants after heavy churn: sorted, deduplicated, bounded.
    for store in (table.unigram, table.bigram):
        for entries in store.values():
            assert len(entries) <= 4
            tokens = [t for t, _ in entries]
            assert len(tokens) == len(set(tokens))
            scores = [s for _, s in entries]
            assert scores == sorted(scores, reverse=True)
            assert all(s >= 0.01 for s in scores)


def chain_table(use_bigram: bool = True) -> AdjacencyTable:
    """Bigram (2, 3) leads to 4, while the unigram tier's best after 3 is 8."""
    table = AdjacencyTable(use_bigram=use_bigram)
    table.harvest(
        [
            (1, 2, [(3, 0.5), (9, 0.4)]),
            (2, 3, [(4, 0.6)]),
            (3, 4, [(5, 0.7)]),
            (7, 3, [(8, 0.9)]),
        ]
    )
    return table


def test_chain_walks_the_bigram_tier_and_stops_at_a_key_with_no_successors():
    table = chain_table()
    assert table.chain(1, 2, 2) == [3, 4]
    # (4, 5) and 5 have no successors, so the walk ends after three tokens.
    assert table.chain(1, 2, 10) == [3, 4, 5]


def test_chain_walks_the_unigram_tier_when_bigrams_are_off():
    assert chain_table(use_bigram=False).chain(1, 2, 10) == [3, 8]


def test_chain_of_length_zero_is_empty():
    assert chain_table().chain(1, 2, 0) == []
    assert AdjacencyTable().chain(None, 2, 4) == []
    with pytest.raises(ValueError):
        chain_table().chain(1, 2, -1)


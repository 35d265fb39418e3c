"""Two-tier token-transition store fed by aggressive logit harvesting.

Tier 1 keeps the top-K successors of every single token, tier 2 the top-K
successors of every observed (prev, cur) bigram. Every scored position of
every model call — accepted or rejected — is merged in, so the table warms up
far faster than accepted-positions-only harvesting would. Writes and reads
share one key: ``harvest`` takes ``(prev, cur, candidates)`` items, and
``successors`` and ``chain`` take ``(prev, cur)``.

The table returns what it stores, and each reader takes as many as it needs.
Its policy acts on writes: the score threshold (nothing below it is stored, so
nothing below it is returned) and the bigram switch (off, no bigram key is
written, so every lookup reads the unigram tier). ``chain`` is the one top-1
successor walk, read by the source-swap control's spine and by a spine tree's
branch extensions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

__all__ = ["AdjacencyTable", "DEFAULT_TOP_K", "MIN_SCORE"]

DEFAULT_TOP_K = 10
MIN_SCORE = 0.01

Entries = list[tuple[int, float]]


def _merge(existing: Entries, new: Iterable[tuple[int, float]], top_k: int, min_score: float) -> Entries:
    # Latest-wins per successor, then best score first with ties to the
    # smaller token (a stable reverse sort of the token-sorted list),
    # truncate, and drop the suffix below the threshold.
    scores = dict(existing)
    scores.update(new)
    merged = sorted(scores.items())
    merged.sort(key=itemgetter(1), reverse=True)
    del merged[top_k:]
    while merged and merged[-1][1] < min_score:
        merged.pop()
    return merged


class AdjacencyTable:
    """Top-K successor lists per unigram and per bigram key."""

    def __init__(self, top_k: int = DEFAULT_TOP_K, min_score: float = MIN_SCORE, use_bigram: bool = True):
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not (0.0 <= min_score <= 1.0):
            raise ValueError(f"min_score must lie in [0, 1], got {min_score}")
        self.top_k = top_k
        self.min_score = min_score
        self.use_bigram = use_bigram
        self.unigram: dict[int, Entries] = {}
        self.bigram: dict[tuple[int, int], Entries] = {}

    def __len__(self) -> int:
        return len(self.unigram) + len(self.bigram)

    def harvest(self, items: Iterable[tuple[int | None, int, Sequence[tuple[int, float]]]]) -> None:
        """Merge scored positions into both tiers.

        Each item is ``(prev, cur, candidates)``, keyed like ``successors`` and
        ``chain``; a ``prev`` of None, or the bigram switch off, feeds the
        unigram tier only.
        """
        for prev, cur, candidates in items:
            self.unigram[cur] = _merge(
                self.unigram.get(cur, []), candidates, self.top_k, self.min_score
            )
            if self.use_bigram and prev is not None:
                key = (prev, cur)
                self.bigram[key] = _merge(
                    self.bigram.get(key, []), candidates, self.top_k, self.min_score
                )

    def successors(self, prev: int | None, cur: int) -> Entries:
        """The context's stored successor list, best first; callers only read it.

        The bigram key's list, or the unigram key's when that is absent or empty.
        """
        return self.bigram.get((prev, cur)) or self.unigram.get(cur, [])

    def chain(self, prev: int | None, cur: int, length: int) -> list[int]:
        """Top-1 successor walk of up to ``length`` tokens; ends at a context with none."""
        if length < 0:
            raise ValueError("length must be >= 0")
        tokens: list[int] = []
        while len(tokens) < length:
            entries = self.successors(prev, cur)
            if not entries:
                break
            prev, cur = cur, entries[0][0]
            tokens.append(cur)
        return tokens

"""N-gram context matching over prompt + generated text.

The index answers one question per decode cycle: do the last n tokens of the
history occur earlier, and if so what followed them? The continuation after
the most recent earlier occurrence becomes the draft chain ("spine"); when two
or more query lengths agree on the first continuation token the match is
flagged as consensus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["MatchResult", "ContextIndex", "DEFAULT_NGRAM_LENGTHS", "MAX_CHAIN"]

DEFAULT_NGRAM_LENGTHS = (3, 4, 5)
MAX_CHAIN = 20


@dataclass(frozen=True)
class MatchResult:
    """Draft chain copied verbatim from history, plus the consensus flag."""

    chain: tuple[int, ...] = ()
    consensus: bool = False


class ContextIndex:
    """Incremental n-gram index; equivalent to re-scanning from scratch.

    For each query length the index keeps one start position per n-gram: its
    most recent occurrence that ends before the last token. An n-gram is
    registered only once a token follows it, so the history suffix itself is
    never in the index and a hit is always an *earlier* occurrence.
    """

    def __init__(
        self,
        tokens: Iterable[int] = (),
        lengths: Sequence[int] = DEFAULT_NGRAM_LENGTHS,
        max_chain: int = MAX_CHAIN,
    ):
        lens = sorted(set(int(n) for n in lengths))
        if not lens or lens[0] < 1:
            raise ValueError("ngram lengths must be a non-empty set of positive ints")
        if max_chain < 1:
            raise ValueError(f"max chain must be >= 1, got {max_chain}")
        self._lengths = tuple(lens)
        self._max_chain = max_chain
        self._tokens: list[int] = []
        self._last: dict[int, dict[tuple[int, ...], int]] = {n: {} for n in lens}
        self.extend(tokens)

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(self._tokens)

    def extend(self, delta: Iterable[int]) -> None:
        """Append tokens; subsequent matches see the extended history."""
        toks = self._tokens
        for t in delta:
            # Register the n-grams that end just before the new token.
            end = len(toks)
            toks.append(t)
            for n in self._lengths:
                if end >= n:
                    self._last[n][tuple(toks[end - n:end])] = end - n

    def match(self) -> MatchResult:
        toks = self._tokens
        total = len(toks)
        found: dict[int, tuple[int, ...]] = {}
        for n in self._lengths:
            # Histories of n tokens or fewer have registered no n-gram yet.
            suffix_start = total - n
            start = self._last[n].get(tuple(toks[suffix_start:]))
            if start is None:
                continue
            # Continuation is copied from the region strictly before the
            # current suffix; an empty region means no usable match for this n.
            chain = tuple(toks[start + n: min(start + n + self._max_chain, suffix_start)])
            if chain:
                found[n] = chain
        if not found:
            return MatchResult()
        firsts = [c[0] for c in found.values()]
        consensus = any(firsts.count(f) >= 2 for f in set(firsts))
        return MatchResult(chain=found[max(found)], consensus=consensus)

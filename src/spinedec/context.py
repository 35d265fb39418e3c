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

__all__ = ["MatchResult", "ContextIndex", "context_match", "DEFAULT_NGRAM_LENGTHS", "MAX_CHAIN"]

DEFAULT_NGRAM_LENGTHS = (3, 4, 5)
MAX_CHAIN = 20


@dataclass(frozen=True)
class MatchResult:
    """Draft chain copied verbatim from history, plus the consensus flag."""

    chain: tuple[int, ...] = ()
    consensus: bool = False

    def __bool__(self) -> bool:
        return bool(self.chain)


class ContextIndex:
    """Incremental n-gram index; equivalent to re-scanning from scratch.

    For each query length the index keeps the last two start positions of
    every n-gram. Two slots suffice: the newest occurrence may be the history
    suffix itself, in which case the previous one is the most recent *earlier*
    occurrence.
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
        self._last: dict[int, dict[tuple[int, ...], tuple[int | None, int]]] = {
            n: {} for n in lens
        }
        self.extend(tokens)

    @property
    def tokens(self) -> tuple[int, ...]:
        return tuple(self._tokens)

    def extend(self, delta: Iterable[int]) -> None:
        """Append tokens; subsequent matches see the extended history."""
        toks = self._tokens
        for t in delta:
            toks.append(t)
            end = len(toks)
            for n in self._lengths:
                if end >= n:
                    gram = tuple(toks[end - n:end])
                    table = self._last[n]
                    old = table.get(gram)
                    table[gram] = (old[1] if old is not None else None, end - n)

    def match(self) -> MatchResult:
        toks = self._tokens
        total = len(toks)
        found: dict[int, tuple[int, ...]] = {}
        for n in self._lengths:
            if total < n + 1:
                continue
            suffix_start = total - n
            rec = self._last[n].get(tuple(toks[suffix_start:]))
            if rec is None:
                continue
            prev, last = rec
            start = last if last < suffix_start else prev
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


def context_match(
    history: Sequence[int],
    lengths: Sequence[int] = DEFAULT_NGRAM_LENGTHS,
    max_chain: int = MAX_CHAIN,
) -> MatchResult:
    """One-shot match over a full history (fresh index each call)."""
    return ContextIndex(history, lengths=lengths, max_chain=max_chain).match()

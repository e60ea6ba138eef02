"""Disjoint integer interval set.

Used by the TCP receiver to track out-of-order data and by the sender's
scoreboard to track SACKed sequence ranges. Ranges are half-open
``[start, end)`` over packet numbers.

The implementation keeps a sorted list of disjoint, non-adjacent ranges
and merges on insert, giving O(log n) lookups and O(n) worst-case insert
(a C-level list shift). :meth:`RangeSet.fill` is the one insert: it
also returns what the insert newly covered, which is the new SACK
state both endpoints act on. The number of fragments is bounded by the
reordering degree of the path: a handful normally, a few hundred at a
receiver behind a drop-tail buffer overflow.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Tuple

Range = Tuple[int, int]


class RangeSet:
    """A set of integers stored as sorted, disjoint half-open ranges."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Iterable[Range] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for start, end in ranges:
            self.fill(start, end)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        """Total number of integers covered."""
        return sum(end - start for start, end in zip(self._starts, self._ends))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RangeSet({self.ranges()!r})"

    def ranges(self) -> List[Range]:
        """All ranges as a list of ``(start, end)`` tuples, ascending."""
        return list(zip(self._starts, self._ends))

    def consistency_error(self) -> Optional[str]:
        """Describe the first structural-invariant violation, or ``None``.

        The representation invariant — parallel start/end lists holding
        sorted, disjoint, non-adjacent, non-empty half-open ranges — is
        what every bisect-based query relies on. The runtime sanitizer
        calls this on the sender's scoreboards after each ACK.
        """
        if len(self._starts) != len(self._ends):
            return (
                f"parallel lists out of sync: {len(self._starts)} starts, "
                f"{len(self._ends)} ends"
            )
        prev_end: Optional[int] = None
        for start, end in zip(self._starts, self._ends):
            if start >= end:
                return f"empty or inverted range [{start}, {end})"
            if prev_end is not None and start <= prev_end:
                kind = "overlapping" if start < prev_end else "unmerged adjacent"
                return f"{kind} ranges at [{start}, {end}) after end {prev_end}"
            prev_end = end
        return None

    def fill(self, start: int, end: int) -> List[Range]:
        """Insert ``[start, end)``; return the sub-ranges it newly covered.

        The returned holes are ascending and empty when the set already
        covered the whole range. One bisect finds the first range that
        overlaps or touches the new one, and a single walk over the
        ranges it absorbs yields both the holes and the merged bounds.
        """
        if start >= end:
            if start == end:
                return []
            raise ValueError(f"invalid range [{start}, {end})")
        starts = self._starts
        ends = self._ends
        lo = hi = bisect_left(ends, start)  # first range with end >= start
        count = len(starts)
        holes: List[Range] = []
        cursor = start
        # Each absorbed range ends at or above the cursor (the first ends
        # at or above start, and the ranges are sorted and disjoint), so
        # the cursor is always the end of the last range walked.
        while hi < count and starts[hi] <= end:
            r_start = starts[hi]
            if r_start > cursor:
                holes.append((cursor, r_start))
            cursor = ends[hi]
            hi += 1
        if cursor < end:
            holes.append((cursor, end))
        if lo == hi:
            starts.insert(lo, start)
            ends.insert(lo, end)
        else:
            # Merge into the first absorbed range: the union's bounds,
            # compared rather than min/max.
            if start < starts[lo]:
                starts[lo] = start
            ends[lo] = cursor if cursor > end else end
            del starts[lo + 1:hi]
            del ends[lo + 1:hi]
        return holes

    def max_value(self) -> int:
        """Largest covered integer. Raises ``ValueError`` when empty."""
        if not self._ends:
            raise ValueError("max_value() of empty RangeSet")
        return self._ends[-1] - 1

    def remove_below(self, cutoff: int) -> None:
        """Discard all integers ``< cutoff`` (scoreboard garbage collection)."""
        idx = bisect_right(self._ends, cutoff)
        del self._starts[:idx]
        del self._ends[:idx]
        if self._starts and self._starts[0] < cutoff:
            self._starts[0] = cutoff

    def holes_between(self, start: int, end: int) -> List[Range]:
        """Uncovered sub-ranges of ``[start, end)``, ascending."""
        if start >= end:
            return []
        holes: List[Range] = []
        cursor = start
        starts, ends = self._starts, self._ends
        # Start at the first range ending above ``start``. Each later
        # range ends above the cursor (the ranges are sorted and
        # disjoint), and one that starts below ``end`` caps its hole.
        for i in range(bisect_right(ends, start), len(starts)):
            r_start = starts[i]
            if r_start >= end:
                break
            if r_start > cursor:
                holes.append((cursor, r_start))
            cursor = ends[i]
            if cursor >= end:
                break
        if cursor < end:
            holes.append((cursor, end))
        return holes

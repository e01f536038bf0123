"""Validated sets of allowed child counts.

A ChildSet is the finite set S of child counts a vertex may have.  It must
contain 0 (otherwise no finite tree exists) and is stored as a strictly
increasing tuple so that equal sets compare and hash equal.  Elements are
taken through operator.index, so 1.5 or "2" is refused, not truncated.
"""

from __future__ import annotations

from operator import index

from .values import Value


def _child_count(element) -> int:
    try:
        return index(element)
    except TypeError:
        raise ValueError(f"child count {element!r} is not an integer") from None


class ChildSet(Value):
    __slots__ = ("elements",)

    def __init__(self, elements) -> None:
        elems = tuple(sorted(set(map(_child_count, elements))))
        if not elems:
            raise ValueError("child set must be nonempty")
        if any(e < 0 for e in elems):
            raise ValueError("child counts must be nonnegative")
        if elems[0] != 0:
            raise ValueError("child set must contain 0")
        self._set(elems)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def max_count(self) -> int:
        return self.elements[-1]

    def within(self, n: int) -> ChildSet:
        """The elements below n: all a vertex of an n-vertex tree can use."""
        return self if self.max_count < n else ChildSet(e for e in self.elements if e < n)

    def check_statistics(self, s1: int, p1: int, s2: int | None = None, p2: int = 0) -> None:
        """Reject a bad statistic X_{s1}^p1 * X_{s2}^p2 with ValueError.

        The engine and the oracles share these rules; s2 may equal s1.
        """
        if p1 < 0 or p2 < 0:
            raise ValueError("powers must be nonnegative")
        if s1 not in self:
            raise ValueError(f"s1={s1} not in child set {self}")
        if s2 is None and p2 != 0:
            raise ValueError("p2 must be 0 when s2 is absent")
        if s2 is not None and s2 not in self:
            raise ValueError(f"s2={s2} not in child set {self}")

    def index(self, value: int) -> int:
        """Position of ``value`` in the sorted element tuple."""
        return self.elements.index(value)

    def offspring_polynomial(self) -> list[int]:
        """Coefficients of sum(z**s for s in S), dense by degree."""
        coeffs = [0] * (self.max_count + 1)
        for s in self.elements:
            coeffs[s] = 1
        return coeffs

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"

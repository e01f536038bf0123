"""Raw, central, and scaled mixed moments of child-count statistics.

For a uniform tree on n vertices let X_s be the number of vertices with s
children.  MomentGrid reads one numerator grid N[a,b] = N00 E[X1^a X2^b]
(engine.numerator_grid) and derives the rest in integers.  With k = a+b:

    C[a,b] = sum_{r,t} C(a,r) C(b,t) (-N10)^r (-N01)^t N00^(k-r-t) N[a-r,b-t]
    m_{a,b} = C[a,b] / N00^(k+1),  var1 = V1 / N00^3,  var2 = V2 / N00^3,

with V1 = C[2,0] and V2 = C[0,2].  Each C[a,b] is computed when first asked
for, by a Horner pass along b of each row and one along a.  The scaled moment
alpha_{a,b} = m_{a,b} / (var1^(a/2) var2^(b/2)) has
alpha^2 = C^2 N00^(k-2) / (V1^a V2^b), so with a = 2a'+e1, b = 2b'+e2 it
is C N00^(a'+b'-1) / (V1^a' V2^b') * sqrt(R) in the radicand class
R = N00^(e1+e2) / (V1^e1 V2^e2).  R is a rational square exactly when
(N00 V1)^e1 (N00 V2)^e2 is a perfect square, decided once per class: at
most three wide isqrt calls per grid.  A cell then renders with one divmod
or one isqrt of about 2*digits digits (render.format_cell).  A Fraction is
built only for a printed raw or central cell, and a Fraction or SqrtExpr on
first access to ScaledMoment.square, .exact or .value.  rho = alpha_{1,1},
which is 1 when s2 == s1: then alpha_{a,b} = alpha_{a+b}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt

from .childset import ChildSet
from .engine import check_query, numerator_grid
from .errors import DegenerateVariance, NoTrees
from .render import SqrtExpr, format_cell
from .values import Value

DEFAULT_DIGITS = 30

# (num, den, (e1, e2)): the value num/den * sqrt(R) in radicand class (e1, e2)
Cell = tuple[int, int, tuple[int, int]]


class MomentSpec(Value):
    """A child set, a vertex count, and one or two statistics to study."""

    __slots__ = ("child_set", "n", "s1", "s2", "max_p1", "max_p2")

    def __init__(
        self,
        child_set: ChildSet,
        n: int,
        s1: int,
        s2: int | None = None,
        max_p1: int = 2,
        max_p2: int | None = None,  # defaults to 2 with a pair, 0 without
    ) -> None:
        if max_p2 is None:
            max_p2 = 2 if s2 is not None else 0
        check_query(child_set, n, s1, max_p1, s2, max_p2)
        self._set(child_set, n, s1, s2, max_p1, max_p2)


def _shift(values: list[int], n00: int, mean: int) -> int:
    """sum_r C(j,r) (-mean)^r N00^(j-r) values[j-r], j = len(values) - 1, by Horner in N00."""
    j = len(values) - 1
    total, power, binom = values[j], 1, 1
    for r in range(1, j + 1):
        power *= -mean
        binom = binom * (j - r + 1) // r  # C(j, r) from C(j, r - 1)
        total = total * n00 + binom * power * values[j - r]
    return total


class MomentGrid:
    """One numerator grid and everything derived from it, kept as integers."""

    def __init__(self, spec: MomentSpec, max_p1: int, max_p2: int) -> None:
        grid = numerator_grid(spec.child_set, spec.n, spec.s1, spec.s2, max_p1, max_p2)
        if grid[(0, 0)] == 0:
            raise NoTrees(f"no trees on {spec.n} vertices for child set {spec.child_set}")
        self.spec, self.numerators, self.n00 = spec, grid, grid[(0, 0)]
        # C[a,b], and per b the pass along b of each row a; all on first request
        self._central: dict[tuple[int, int], int] = {}
        self._along_b: dict[int, list[int]] = {}
        self._classes: dict[tuple[int, int], tuple[int, int, int | None]] = {}

    v1 = property(lambda self: self.central_numerator(2, 0))  # V1 = N00^3 var1
    v2 = property(lambda self: self.central_numerator(0, 2))  # V2 = N00^3 var2

    def central_numerator(self, p1: int, p2: int) -> int:
        """C[p1,p2], computed when first asked for and then kept."""
        if (p1, p2) not in self._central:
            self._central[(p1, p2)] = self._compute_central(p1, p2)
        return self._central[(p1, p2)]

    def _compute_central(self, p1: int, p2: int) -> int:
        # the passes along b of rows 0..p1, kept for the column's other cells, then one along a
        grid, rows = self.numerators, self._along_b.setdefault(p2, [])
        for a in range(len(rows), p1 + 1):
            row = [grid[(a, b)] for b in range(p2 + 1)]
            rows.append(_shift(row, self.n00, grid.get((0, 1), 0)))
        return _shift(rows[: p1 + 1], self.n00, grid.get((1, 0), 0))

    def raw(self, p1: int, p2: int) -> Fraction:
        return Fraction(self.numerators[(p1, p2)], self.n00)

    def central(self, p1: int, p2: int) -> Fraction:
        return Fraction(self.central_numerator(p1, p2), self.n00 ** (p1 + p2 + 1))

    def radicand(self, cls: tuple[int, int]) -> tuple[int, int, int | None]:
        """(u, v, root): R = u/v, root = isqrt(u*v) if u*v is a square, else None."""
        if cls not in self._classes:
            e1, e2 = cls
            u, v = self.n00 ** (e1 + e2), (self.v1 if e1 else 1) * (self.v2 if e2 else 1)
            root = isqrt(u * v)
            self._classes[cls] = u, v, (root if root * root == u * v else None)
        return self._classes[cls]

    def alpha(self, p1: int, p2: int) -> Cell:
        """alpha_{p1,p2}; the variances it divides by must be positive."""
        (a1, e1), (a2, e2) = divmod(p1, 2), divmod(p2, 2)
        num = self.central_numerator(p1, p2)
        den = (self.v1**a1 if a1 else 1) * (self.v2**a2 if a2 else 1)
        if a1 + a2 == 0:
            return num, den * self.n00, (e1, e2)
        return num * self.n00 ** (a1 + a2 - 1), den, (e1, e2)

    def normal_gap(self, alpha: Cell, coefficients: tuple[int, ...]) -> tuple[Cell, Cell]:
        """Cells of the normal reference sum_k c_k rho^k and of alpha minus it.

        A nonzero reference has p1 and p2 of one parity and only powers of
        rho of that parity, so it shares alpha's class: rational when both
        are even, a multiple of sqrt(R_{1,1}) when both are odd, with
        rho = (C11/N00) sqrt(R_{1,1}) and rho^2 = C11^2/(V1 V2).
        """
        if not coefficients:
            return (0, 1, (0, 0)), alpha
        num, den, cls = alpha
        odd = cls[1]
        c11 = self.central_numerator(1, 1)
        x, y = c11 * c11, self.v1 * self.v2  # rho^2 = x / y
        terms = coefficients[odd::2]
        total = sum(c * x**j * y ** (len(terms) - 1 - j) for j, c in enumerate(terms))
        ref_den = y ** (len(terms) - 1) * (self.n00 if odd else 1)
        ref_num = c11 * total if odd else total
        return (ref_num, ref_den, cls), (num * ref_den - ref_num * den, den * ref_den, cls)

    def rational(self, cell: Cell) -> tuple[int, int] | None:
        """(num, den) of the cell's value if it is rational, else None."""
        num, den, cls = cell
        if num == 0:
            return 0, 1
        _, v, root = self.radicand(cls)
        return None if root is None else (num * root, den * v)

    def render(self, cell: Cell, digits: int) -> str:
        ratio = self.rational(cell)
        if ratio is None:
            return format_cell(cell[0], cell[1], self.radicand(cell[2])[:2], digits)
        return format_cell(*ratio, None, digits)

    def scaled(self, p1: int, p2: int, digits: int) -> ScaledMoment:
        spec = self.spec
        if p1 > 0 and self.v1 <= 0:
            raise DegenerateVariance(f"X_{spec.s1} has zero variance at n={spec.n}")
        if p2 > 0 and self.v2 <= 0:
            raise DegenerateVariance(f"X_{spec.s2} has zero variance at n={spec.n}")
        cell = self.alpha(p1, p2)
        sign = (cell[0] > 0) - (cell[0] < 0)
        return ScaledMoment(p1, p2, sign, self.render(cell, digits), cell, self)


# gaussref reads the grid through these names; perfbench/tracer.py wraps them there
_grid = MomentGrid
_central_from_grid = MomentGrid.central
_scaled_from_grid = MomentGrid.scaled


def raw_moment(spec: MomentSpec, p1: int, p2: int = 0) -> Fraction:
    """E[X_{s1}^p1 * X_{s2}^p2] as an exact rational."""
    return MomentGrid(spec, p1, p2).raw(p1, p2)


def central_moment(spec: MomentSpec, p1: int, p2: int = 0) -> Fraction:
    """E[(X_{s1}-mu1)^p1 (X_{s2}-mu2)^p2] as an exact rational."""
    return MomentGrid(spec, p1, p2).central(p1, p2)


class ScaledMoment(Value, hidden=("cell", "grid")):
    """One scaled mixed moment: sign and rendering; exact forms on first access.

    sign is the sign of the central moment in the numerator, text the
    decimal rendering at the requested digits.
    """

    __slots__ = ("p1", "p2", "sign", "text", "cell", "grid", "__dict__")

    def __init__(
        self, p1: int, p2: int, sign: int, text: str, cell: Cell, grid: MomentGrid
    ) -> None:
        self._set(p1, p2, sign, text, cell, grid)

    @cached_property
    def square(self) -> Fraction:
        """Exact alpha^2."""
        num, den, cls = self.cell
        u, v, _ = self.grid.radicand(cls)
        return Fraction(num * num * u, den * den * v)

    @cached_property
    def exact(self) -> Fraction | None:
        """Exact rational value when no square root remains."""
        ratio = self.grid.rational(self.cell)
        return None if ratio is None else Fraction(*ratio)

    @cached_property
    def value(self) -> SqrtExpr:
        if self.exact is not None:
            return SqrtExpr(self.exact, ())
        return SqrtExpr(Fraction(0), ((Fraction(self.sign), self.square),))


def scaled_moment(
    spec: MomentSpec, p1: int, p2: int = 0, digits: int = DEFAULT_DIGITS
) -> ScaledMoment:
    """alpha_{p1,p2}; needs positive variance for each statistic with p > 0."""
    need_p1 = max(p1, 2 if p1 > 0 else 0)
    need_p2 = max(p2, 2 if p2 > 0 else 0)
    return MomentGrid(spec, need_p1, need_p2).scaled(p1, p2, digits)


def correlation(spec: MomentSpec, digits: int = DEFAULT_DIGITS) -> ScaledMoment:
    """rho = alpha_{1,1}; requires a MomentSpec carrying two statistics."""
    return scaled_moment(spec, 1, 1, digits)


class MomentReport(Value):
    """Every raw/central/scaled moment on the grid [0..max_p1] x [0..max_p2]."""

    __slots__ = ("spec", "digits", "raw", "central", "scaled", "correlation_rho", "degenerate")

    def __init__(
        self,
        spec: MomentSpec,
        digits: int,
        raw: dict[tuple[int, int], Fraction],
        central: dict[tuple[int, int], Fraction],
        scaled: dict[tuple[int, int], ScaledMoment] | None = None,
        correlation_rho: ScaledMoment | None = None,
        degenerate: bool = False,
    ) -> None:
        scaled = {} if scaled is None else scaled
        self._set(spec, digits, raw, central, scaled, correlation_rho, degenerate)


def moment_report(spec: MomentSpec, digits: int = DEFAULT_DIGITS) -> MomentReport:
    """Populate the full grid; scaled cells are omitted when variance is zero."""
    max_p1, max_p2 = spec.max_p1, spec.max_p2
    pair = spec.s2 is not None
    grid = MomentGrid(spec, max(max_p1, 2), max(max_p2, 2 if pair else 0))
    cells = [(a, b) for a in range(max_p1 + 1) for b in range(max_p2 + 1)]
    raw = {cell: grid.raw(*cell) for cell in cells}
    central = {cell: grid.central(*cell) for cell in cells}
    degenerate = grid.v1 == 0 or (pair and grid.v2 == 0)
    # cells whose variance is zero are marked unavailable rather than raising
    usable = [(a, b) for a, b in cells if (a == 0 or grid.v1 > 0) and (b == 0 or grid.v2 > 0)]
    scaled = {cell: grid.scaled(*cell, digits) for cell in usable}
    rho = None
    if pair and not degenerate:
        rho = scaled.get((1, 1)) or grid.scaled(1, 1, digits)
    return MomentReport(spec, digits, raw, central, scaled, rho, degenerate)

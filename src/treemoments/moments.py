"""Raw, central, and scaled mixed moments of child-count statistics.

For a uniform tree on n vertices let X_s be the number of vertices with s
children.  Raw moments are ratios of exact numerators, central moments come
from the binomial expansion around the mean, and scaled moments divide by
the appropriate powers of the standard deviations:

    alpha_{p1,p2} = m_{p1,p2} / (m_{2,0}^{p1/2} * m_{0,2}^{p2/2})

Everything is exact: rationals throughout, with square roots deferred to
rendering (see render.SqrtExpr).  The correlation is rho = alpha_{1,1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .childset import ChildSet
from .engine import check_query, numerator_grid
from .errors import DegenerateVariance, NoTrees
from .render import SqrtExpr

DEFAULT_DIGITS = 30


@dataclass(frozen=True)
class MomentSpec:
    """A child set, a vertex count, and one or two statistics to study."""

    child_set: ChildSet
    n: int
    s1: int
    s2: int | None = None
    max_p1: int = 2
    max_p2: int | None = None  # defaults to 2 with a pair, 0 without

    def __post_init__(self) -> None:
        if self.max_p2 is None:
            object.__setattr__(self, "max_p2", 2 if self.s2 is not None else 0)
        if self.s2 == self.s1:
            raise ValueError("s1 and s2 must be distinct")
        check_query(self.child_set, self.n, self.s1, self.max_p1, self.s2, self.max_p2)


def _grid(spec: MomentSpec, max_p1: int, max_p2: int) -> dict[tuple[int, int], int]:
    grid = numerator_grid(spec.child_set, spec.n, spec.s1, spec.s2, max_p1, max_p2)
    if grid[(0, 0)] == 0:
        raise NoTrees(
            f"no trees on {spec.n} vertices for child set {spec.child_set}"
        )
    return grid


def raw_moment(spec: MomentSpec, p1: int, p2: int = 0) -> Fraction:
    """E[X_{s1}^p1 * X_{s2}^p2] as an exact rational."""
    grid = _grid(spec, p1, p2)
    return Fraction(grid[(p1, p2)], grid[(0, 0)])


def _central_from_grid(
    grid: dict[tuple[int, int], int], p1: int, p2: int
) -> Fraction:
    """Binomial expansion of E[(X1-mu1)^p1 (X2-mu2)^p2] over exact numerators.

    Multiplying through by N00 keeps every term integral:
        total = sum_{r,t} C(p1,r) C(p2,t) (-1)^(r+t)
                N10^r N01^t N00^(p1+p2-r-t) N_{p1-r,p2-t}
        m = total / N00^(p1+p2+1)
    """
    n00 = grid[(0, 0)]
    n10 = grid[(1, 0)] if p1 > 0 else 0
    n01 = grid[(0, 1)] if p2 > 0 else 0
    total = 0
    for r in range(p1 + 1):
        for t in range(p2 + 1):
            term = comb(p1, r) * comb(p2, t)
            term *= n10**r * n01**t
            term *= n00 ** (p1 + p2 - r - t)
            term *= grid[(p1 - r, p2 - t)]
            if (r + t) % 2:
                total -= term
            else:
                total += term
    return Fraction(total, n00 ** (p1 + p2 + 1))


def central_moment(spec: MomentSpec, p1: int, p2: int = 0) -> Fraction:
    """E[(X_{s1}-mu1)^p1 (X_{s2}-mu2)^p2] as an exact rational."""
    grid = _grid(spec, p1, p2)
    return _central_from_grid(grid, p1, p2)


@dataclass(frozen=True)
class ScaledMoment:
    """One scaled mixed moment: exact square plus sign, with a rendering."""

    p1: int
    p2: int
    value: SqrtExpr
    square: Fraction  # exact alpha^2
    sign: int  # sign of the central moment in the numerator
    text: str  # decimal rendering at the requested digits

    @property
    def exact(self) -> Fraction | None:
        """Exact rational value when no square root remains."""
        return self.value.as_rational()


def _scaled_from_grid(
    spec: MomentSpec,
    grid: dict[tuple[int, int], int],
    p1: int,
    p2: int,
    digits: int,
) -> ScaledMoment:
    m = _central_from_grid(grid, p1, p2)
    var1 = _central_from_grid(grid, 2, 0) if p1 > 0 else Fraction(1)
    var2 = _central_from_grid(grid, 0, 2) if p2 > 0 else Fraction(1)
    if p1 > 0 and var1 <= 0:
        raise DegenerateVariance(f"X_{spec.s1} has zero variance at n={spec.n}")
    if p2 > 0 and var2 <= 0:
        raise DegenerateVariance(f"X_{spec.s2} has zero variance at n={spec.n}")
    square = m * m / (var1**p1 * var2**p2)
    sign = 1 if m > 0 else (-1 if m < 0 else 0)
    value = SqrtExpr.from_sqrt(sign, square)
    return ScaledMoment(p1, p2, value, square, sign, value.render(digits))


def scaled_moment(
    spec: MomentSpec, p1: int, p2: int = 0, digits: int = DEFAULT_DIGITS
) -> ScaledMoment:
    """alpha_{p1,p2}; needs positive variance for each statistic with p > 0."""
    need_p1 = max(p1, 2 if p1 > 0 else 0)
    need_p2 = max(p2, 2 if p2 > 0 else 0)
    grid = _grid(spec, need_p1, need_p2)
    return _scaled_from_grid(spec, grid, p1, p2, digits)


def correlation(spec: MomentSpec, digits: int = DEFAULT_DIGITS) -> ScaledMoment:
    """rho = alpha_{1,1}; requires a MomentSpec carrying two statistics."""
    return scaled_moment(spec, 1, 1, digits)


@dataclass(frozen=True)
class MomentReport:
    """Every raw/central/scaled moment on the grid [0..max_p1] x [0..max_p2]."""

    spec: MomentSpec
    digits: int
    raw: dict[tuple[int, int], Fraction]
    central: dict[tuple[int, int], Fraction]
    scaled: dict[tuple[int, int], ScaledMoment] = field(default_factory=dict)
    correlation_rho: ScaledMoment | None = None
    degenerate: bool = False


def moment_report(spec: MomentSpec, digits: int = DEFAULT_DIGITS) -> MomentReport:
    """Populate the full grid; scaled cells are omitted when variance is zero."""
    max_p1, max_p2 = spec.max_p1, spec.max_p2
    need_p1 = max(max_p1, 2)
    need_p2 = max(max_p2, 2 if spec.s2 is not None else 0)
    grid = _grid(spec, need_p1, need_p2)
    cells = [(a, b) for a in range(max_p1 + 1) for b in range(max_p2 + 1)]
    n00 = grid[(0, 0)]
    raw = {cell: Fraction(grid[cell], n00) for cell in cells}
    central = {cell: _central_from_grid(grid, *cell) for cell in cells}
    var1 = _central_from_grid(grid, 2, 0)
    var2 = _central_from_grid(grid, 0, 2) if spec.s2 is not None else Fraction(1)
    degenerate = var1 == 0 or (spec.s2 is not None and var2 == 0)
    scaled: dict[tuple[int, int], ScaledMoment] = {}
    rho: ScaledMoment | None = None
    for cell in cells:
        a, b = cell
        if (a > 0 and var1 == 0) or (b > 0 and var2 == 0):
            continue  # marked unavailable rather than raising
        scaled[cell] = _scaled_from_grid(spec, grid, a, b, digits)
    if spec.s2 is not None and var1 > 0 and var2 > 0:
        source = scaled.get((1, 1))
        rho = source if source is not None else _scaled_from_grid(spec, grid, 1, 1, digits)
    return MomentReport(spec, digits, raw, central, scaled, rho, degenerate)

"""Guess and verify linear recurrences with polynomial coefficients.

A sequence a_n is P-recursive when there are polynomials q_0..q_r, not all
zero, with

    q_0(n)*a_n + q_1(n)*a_{n+1} + ... + q_r(n)*a_{n+r} = 0   for all n.

guess_recurrence finds the minimal such relation (smallest order, then
smallest degree) fitting a finite stretch of terms, by solving the exact
homogeneous linear system and insisting that a margin of held-out trailing
terms also satisfies the result.  verify_recurrence and extend_sequence
check and apply a relation exactly.

Each (order, degree) system has integer rows term * n**e.  exact_nullspace
solves it in integers only, in two steps.  An echelon scan reduces each row
against the rows kept so far with lead*row - factor*kept and divides out
the content, and stops as soon as cols rows are kept: the system then has
full column rank and no nonzero solution, which is where most of a failed
search ends.  A fraction-free Gauss-Jordan on the kept rows, which span the
row space, then gives one primitive vector per free column (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968).  The row space fixes the reduced row
echelon form, so each vector is a positive multiple of the one an all-rows
rational solve gives.

Sequence indexing: seq[i] is the term a_{start+i}; start defaults to 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from .errors import InsufficientData, LeadingCoefficientZero
from .values import Value

DEFAULT_MARGIN = 8

IntPoly = tuple[int, ...]  # coefficient at index e multiplies n**e


def polyval(coeffs: IntPoly, n: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * n + c
    return total


def _poly_shift(coeffs: IntPoly, delta: int) -> IntPoly:
    """Coefficients of p(n + delta)."""
    out = [0] * len(coeffs)
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        for i in range(e + 1):
            out[i] += c * comb(e, i) * delta ** (e - i)
    return _trim(tuple(out))


def _trim(coeffs: IntPoly) -> IntPoly:
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    return tuple(trimmed)


def _format_poly_body(coeffs: IntPoly) -> str:
    """Compact human form like 2*n-1 or n^2+3 (no outer parentheses)."""
    parts: list[str] = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "n" if e == 1 else f"n^{e}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(parts) if parts else "0"


class Recurrence(Value):
    """q_0..q_r with integer coefficient polynomials in n.

    coefficients[j] lists the coefficients of q_j by power of n; the
    relation reads sum_j q_j(n) * a_{n+j} = 0.
    """

    __slots__ = ("coefficients", "verified_from", "verified_to")

    def __init__(
        self,
        coefficients: tuple[IntPoly, ...],
        verified_from: int | None = None,
        verified_to: int | None = None,
    ) -> None:
        if len(coefficients) < 2:
            raise ValueError("a recurrence needs order at least 1")
        coefficients = tuple(_trim(q) for q in coefficients)
        if all(all(c == 0 for c in q) for q in coefficients):
            raise ValueError("coefficients must not all be zero")
        if all(c == 0 for c in coefficients[-1]):
            raise ValueError("the leading polynomial must not vanish identically")
        self._set(coefficients, verified_from, verified_to)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def degree(self) -> int:
        return max(len(q) - 1 for q in self.coefficients)

    def residual(self, n: int, window) -> int:
        """sum_j q_j(n) * window[j]; window holds a_n..a_{n+order}."""
        return sum(polyval(q, n) * w for q, w in zip(self.coefficients, window))

    def normalized(self) -> "Recurrence":
        """Canonical form: content removed, leading coefficient positive."""
        content = 0
        for q in self.coefficients:
            for c in q:
                content = gcd(content, c)
        if content == 0:
            raise ValueError("coefficients must not all be zero")
        lead = self.coefficients[-1]
        sign = 1 if lead[-1] > 0 else -1
        scale = sign * content
        return Recurrence(
            tuple(tuple(c // scale for c in q) for q in self.coefficients),
            self.verified_from,
            self.verified_to,
        )

    def render_text(self) -> str:
        """Backward-shift form, e.g. (n+1)*a(n) - (2*n-1)*a(n-1) - ... = 0."""
        r = self.order
        pieces: list[str] = []
        for back in range(r + 1):
            poly = _poly_shift(self.coefficients[r - back], -r)
            if all(c == 0 for c in poly):
                continue
            negative = poly[-1] < 0
            mag = tuple(-c for c in poly) if negative else poly
            content = 0
            for c in mag:
                content = gcd(content, c)
            primitive = tuple(c // content for c in mag)
            arg = "n" if back == 0 else f"n-{back}"
            if len(primitive) == 1:
                factor = "" if content == 1 else f"{content}*"
            elif sum(1 for c in primitive if c) == 1:
                body = _format_poly_body(primitive)
                factor = f"{body}*" if content == 1 else f"{content}*{body}*"
            else:
                body = _format_poly_body(primitive)
                factor = f"({body})*" if content == 1 else f"{content}*({body})*"
            term = f"{factor}a({arg})"
            if not pieces:
                pieces.append(f"-{term}" if negative else term)
            else:
                pieces.append(f" - {term}" if negative else f" + {term}")
        return "".join(pieces) + " = 0"

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "coefficients": [list(q) for q in self.coefficients],
            "verified_from": self.verified_from,
            "verified_to": self.verified_to,
            "text": self.render_text(),
        }


class VerifyResult(Value):
    __slots__ = ("ok", "first_failure")

    def __init__(self, ok: bool, first_failure: int | None = None) -> None:
        self._set(ok, first_failure)  # first_failure: n of the first violated relation

    def __bool__(self) -> bool:
        return self.ok


def verify_recurrence(
    rec: Recurrence,
    seq,
    n_from: int | None = None,
    n_to: int | None = None,
    start: int = 1,
) -> VerifyResult:
    """Exact check of the relation for n in [n_from, n_to] (vacuous if empty)."""
    r = rec.order
    if n_from is None:
        n_from = start
    if n_to is None:
        n_to = start + len(seq) - 1 - r
    if n_to < n_from:
        return VerifyResult(True)
    if n_from < start or n_to + r > start + len(seq) - 1:
        raise ValueError("verification range reaches outside the sequence")
    for n in range(n_from, n_to + 1):
        i = n - start
        if rec.residual(n, seq[i : i + r + 1]) != 0:
            return VerifyResult(False, n)
    return VerifyResult(True)


class ExtendedSequence(Value):
    """Terms a_start..a_target from a recurrence, exact rationals.

    non_integral lists the n where the recurrence produced a non-integer.
    """

    __slots__ = ("start", "terms", "non_integral")

    def __init__(self, start: int, terms: list[Fraction], non_integral: list[int]) -> None:
        self._set(start, terms, non_integral)

    def term(self, n: int) -> Fraction:
        return self.terms[n - self.start]


def extend_sequence(
    rec: Recurrence, initial_terms, n_target: int, start: int = 1
) -> ExtendedSequence:
    """Run the recurrence forward to n_target using exact division.

    Non-integral results are flagged, not rejected: they are evidence that
    the recurrence or the initial terms are wrong.
    """
    r = rec.order
    if len(initial_terms) < r:
        raise ValueError(f"need at least {r} initial terms")
    terms = [Fraction(t) for t in initial_terms]
    non_integral = [start + i for i, t in enumerate(terms) if t.denominator != 1]
    lead = rec.coefficients[-1]
    while start + len(terms) - 1 < n_target:
        m = start + len(terms)  # index of the term being produced
        n = m - r
        denom = polyval(lead, n)
        if denom == 0:
            raise LeadingCoefficientZero(
                f"leading polynomial vanishes at n={n}; cannot extend to {m}"
            )
        acc = Fraction(0)
        for j in range(r):
            acc += polyval(rec.coefficients[j], n) * terms[n - start + j]
        value = -acc / denom
        if value.denominator != 1:
            non_integral.append(m)
        terms.append(value)
    return ExtendedSequence(start, terms, non_integral)


def _candidate_from_vector(
    vec: list[int], order: int, degree: int
) -> Recurrence | None:
    """The normalized Recurrence of a kernel vector, if its q_order is nonzero."""
    width = degree + 1
    polys = [tuple(vec[j * width : (j + 1) * width]) for j in range(order + 1)]
    if all(c == 0 for c in polys[-1]):
        return None  # really a lower-order relation; found earlier if genuine
    return Recurrence(tuple(polys)).normalized()


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries, which are not all zero."""
    content = gcd(*row)
    return row if content == 1 else [c // content for c in row]


def _eliminate(row: list[int], pivot_row: list[int], col: int) -> list[int]:
    """lead*row - factor*pivot_row, zero at col; lead and factor share no factor."""
    lead, factor = pivot_row[col], row[col]
    common = gcd(lead, factor)
    lead, factor = lead // common, factor // common
    return [lead * a - factor * b for a, b in zip(row, pivot_row)]


def _echelon(rows, cols: int) -> list[tuple[int, list[int]]] | None:
    """(pivot column, primitive row) for a maximal independent set of rows.

    Each row is reduced against the rows kept so far; a nonzero remainder is
    kept with its first nonzero column as pivot.  None means cols rows were
    kept: the system has full column rank and only the zero solution.
    """
    kept: list[tuple[int, list[int]]] = []
    for row in rows:
        vec = list(row)
        for col, pivot_row in kept:
            if vec[col]:
                vec = _eliminate(vec, pivot_row, col)
        col = next((c for c, v in enumerate(vec) if v), None)
        if col is None:
            continue
        kept.append((col, _primitive(vec)))
        if len(kept) == cols:
            return None
    return kept


def _kernel(kept: list[tuple[int, list[int]]], cols: int) -> list[list[int]]:
    """Nullspace basis of the echelon rows, by fraction-free Gauss-Jordan.

    One vector per free column, in ascending order: the reduced row echelon
    form's basis vector scaled to a primitive integer vector that is
    positive at its free column.
    """
    kept = sorted(kept)
    pivots = [col for col, _ in kept]
    rows = [row for _, row in kept]
    # Row i is zero left of its pivot, so it is eliminated only from rows above.
    for i in reversed(range(len(rows))):
        for k in range(i):
            if rows[k][pivots[i]]:
                rows[k] = _primitive(_eliminate(rows[k], rows[i], pivots[i]))
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        # lcm is positive and exact for pivots of either sign
        scale = lcm(*(row[col] for col, row in zip(pivots, rows) if row[free]))
        vec = [0] * cols
        vec[free] = scale
        for col, row in zip(pivots, rows):
            vec[col] = -row[free] * (scale // row[col])
        basis.append(_primitive(vec))
    return basis


def exact_nullspace(rows, cols: int) -> list[list[int]]:
    """Integer basis of the rational nullspace of the integer rows.

    rows is any iterable of integer rows of length cols, read once and only
    as far as the echelon scan needs.  Vector i is the reduced row echelon
    form's basis vector for the i-th free column, scaled to be primitive
    and positive at that column.
    """
    kept = _echelon(rows, cols)
    return [] if kept is None else _kernel(kept, cols)


def guess_recurrence(
    seq,
    max_order: int,
    max_degree: int,
    start: int = 1,
    margin: int = DEFAULT_MARGIN,
) -> Recurrence | None:
    """Minimal recurrence fitting seq, or None if none exists within bounds.

    The last `margin` terms are excluded from the linear system and used
    only to reject spurious fits; the returned recurrence is verified
    against every provided term.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError("need max_order >= 1 and max_degree >= 0")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    needed = (max_order + 1) * (max_degree + 1) + max_order + margin
    if len(seq) < needed:
        raise InsufficientData(
            f"got {len(seq)} terms; need at least {needed} for order "
            f"{max_order}, degree {max_degree}, margin {margin}"
        )
    fit_len = len(seq) - margin
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            width = degree + 1
            cols = (order + 1) * width
            if fit_len - order < cols:
                continue
            # built lazily: a full-rank system ends the scan after about cols rows
            rows = (
                [
                    seq[i + j] * (start + i) ** e
                    for j in range(order + 1)
                    for e in range(width)
                ]
                for i in range(fit_len - order)
            )
            for vec in exact_nullspace(rows, cols):
                candidate = _candidate_from_vector(vec, order, degree)
                if candidate is None:
                    continue
                full = verify_recurrence(candidate, seq, start=start)
                if full.ok:
                    return Recurrence(
                        candidate.coefficients,
                        start,
                        start + len(seq) - 1 - order,
                    )
    return None

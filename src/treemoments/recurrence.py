"""Guess and verify linear recurrences with polynomial coefficients.

A sequence a_n is P-recursive when there are polynomials q_0..q_r, not all
zero, with

    q_0(n)*a_n + q_1(n)*a_{n+1} + ... + q_r(n)*a_{n+r} = 0   for all n.

guess_recurrence finds the minimal such relation (smallest order, then
smallest degree) fitting a finite stretch of terms, by solving the exact
homogeneous linear system over rationals and insisting that a margin of
held-out trailing terms also satisfies the result.  verify_recurrence and
extend_sequence check and apply a relation exactly.

Each (order, degree) system has integer rows term * n**e.  Before any exact
solve the rows are reduced modulo the prime 2**61 - 1 (Kauers, "The Guessing
Handbook", 2009).  The rank over Q is at least the rank mod p, so full
column rank mod p proves the system has no nonzero solution and it is
skipped; most of a failed search ends there.  Otherwise the exact
Gauss-Jordan runs only on the rows independent mod p, which are independent
over Q, and every basis vector is checked against every row.  If all pass,
the subsystem has the same nullspace as the whole system, hence the same
reduced row echelon form and the same basis, so the result is the one the
all-rows solve would give.  If one fails (an unlucky prime), the whole
system is solved.  A prime can cost time but never change the output.
exact_nullspace is this solver; derived uses it to find ODEs that are
proved rather than guessed.

Sequence indexing: seq[i] is the term a_{start+i}; start defaults to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import InsufficientData, LeadingCoefficientZero

DEFAULT_MARGIN = 8

# The prime guess_recurrence prunes with; any prime gives the same output.
_MODULUS = 2**61 - 1

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


@dataclass(frozen=True)
class Recurrence:
    """q_0..q_r with integer coefficient polynomials in n.

    coefficients[j] lists the coefficients of q_j by power of n; the
    relation reads sum_j q_j(n) * a_{n+j} = 0.
    """

    coefficients: tuple[IntPoly, ...]
    verified_from: int | None = None
    verified_to: int | None = None

    def __post_init__(self) -> None:
        if len(self.coefficients) < 2:
            raise ValueError("a recurrence needs order at least 1")
        object.__setattr__(
            self, "coefficients", tuple(_trim(q) for q in self.coefficients)
        )
        if all(all(c == 0 for c in q) for q in self.coefficients):
            raise ValueError("coefficients must not all be zero")
        if all(c == 0 for c in self.coefficients[-1]):
            raise ValueError("the leading polynomial must not vanish identically")

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


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_failure: int | None = None  # n of the first violated relation

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


@dataclass(frozen=True)
class ExtendedSequence:
    """Terms a_start..a_target from a recurrence, exact rationals."""

    start: int
    terms: list[Fraction]
    non_integral: list[int]  # n where the recurrence produced a non-integer

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


def _nullspace(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of the matrix, via exact Gauss-Jordan."""
    matrix = [row[:] for row in rows]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(cols):
        pivot_row = None
        for i in range(rank, len(matrix)):
            if matrix[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [c * inv for c in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        pivot_cols.append(col)
        rank += 1
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[i][free]
        basis.append(vec)
    return basis


def _clear_denominators(vec: list[Fraction]) -> list[int]:
    scale = lcm(*(v.denominator for v in vec)) if vec else 1
    return [int(v * scale) for v in vec]


def _candidate_from_vector(vec, order: int, degree: int) -> Recurrence | None:
    """Clear denominators and build a normalized Recurrence, if nondegenerate."""
    ints = _clear_denominators(vec)
    width = degree + 1
    polys = [tuple(ints[j * width : (j + 1) * width]) for j in range(order + 1)]
    if all(c == 0 for c in polys[-1]):
        return None  # really a lower-order relation; found earlier if genuine
    if all(all(c == 0 for c in q) for q in polys):
        return None
    return Recurrence(tuple(polys)).normalized()


def _independent_rows_mod(rows, cols: int) -> list[int] | None:
    """Indices of rows independent modulo _MODULUS, or None at full column rank.

    Rows are reduced one at a time against the echelon basis built so far;
    the scan stops as soon as the rank reaches cols.
    """
    modulus = _MODULUS
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row with pivot 1)
    kept: list[int] = []
    for index, row in enumerate(rows):
        vec = [c % modulus for c in row]
        for col, pivot_row in basis:
            factor = vec[col]
            if factor:
                vec = [(a - factor * b) % modulus for a, b in zip(vec, pivot_row)]
        col = next((c for c, v in enumerate(vec) if v), None)
        if col is None:
            continue
        inv = pow(vec[col], -1, modulus)
        basis.append((col, [v * inv % modulus for v in vec]))
        kept.append(index)
        if len(kept) == cols:
            return None
    return kept


def _solves(vec: list[Fraction], rows) -> bool:
    """Whether the rational vector is in the nullspace of every integer row."""
    ints = _clear_denominators(vec)
    return all(sum(a * b for a, b in zip(row, ints)) == 0 for row in rows)


def exact_nullspace(rows, cols: int) -> list[list[Fraction]]:
    """_nullspace of the integer rows, pruned modulo _MODULUS.

    Returns the same basis as solving every row; see the module docstring.
    """
    kept = _independent_rows_mod(rows, cols)
    if kept is None:
        return []
    basis = _nullspace([[Fraction(c) for c in rows[i]] for i in kept], cols)
    if all(_solves(vec, rows) for vec in basis):
        return basis
    return _nullspace([[Fraction(c) for c in row] for row in rows], cols)


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
            rows = []
            for i in range(fit_len - order):
                n = start + i
                row = []
                for j in range(order + 1):
                    term = seq[i + j]
                    row.extend(term * n**e for e in range(width))
                rows.append(row)
            if len(rows) < cols:
                continue
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

"""Proved recurrences for tree counts, derived from u = x * phi(u).

The counting series u = sum f_n x^n solves u = x * phi(u), so x = u/phi(u)
is rational in u and dx/du = Delta/phi^2 with Delta = phi - u*phi'.  Every
derivative of u is therefore rational in u:

    d^k u/dx^k = P_k(u) / Delta(u)^e_k,   e_0 = 0 and e_k = 2k - 1 for k >= 1,

with P_0 = u, P_1 = phi^2 and P_(k+1) = phi^2 * (P_k' * Delta - e_k * P_k * Delta').
Substituting x = u/phi(u) into a linear ODE sum_k c_k(x) * u^(k) = 0 of
order K, with c_k(x) = sum_(j<=d) c_kj x^j, and multiplying by
phi^d * Delta^(2K-1) gives the polynomial identity

    sum_kj c_kj * u^j * phi^(d-j) * Delta^(2K-1-e_k) * P_k = 0.

Its coefficients in u form a homogeneous integer linear system in the c_kj,
solved in integers by recurrence.exact_nullspace for (K, d) pairs in order
of increasing size; the first nonzero solution is the ODE.  The map u -> x
is invertible at 0, so an identity in u is an identity of power series:
the ODE is proved, not guessed (Comtet, "Calcul pratique des coefficients
de Taylor d'une fonction algebrique", 1964; Bostan, Chyzak, Lecerf, Salvy
& Schost, "Differential equations for algebraic functions", ISSAC 2007).
One exists with K <= max(S, 1), because u is algebraic of degree max(S)
over Q(x); it need not be minimal.

Reading off [x^m] of the ODE gives, for every integer m,

    sum_kj c_kj * ff(m - j + k, k) * f_(m - j + k) = 0,

with f_i = 0 for i <= 0 and ff the falling factorial.  count_range steps
this relation straight from the c_kj: at each n it sums one small integer
weight per shift t = k - j, divides once with a check that the division is
exact, and takes f_n from engine.count_trees where the weight of the top
shift vanishes.  The search has a work budget of a tenth of what the
per-n path would spend on the range, charged before each solve at its
measured cost (_search_cost); past it the range is computed per n.
"""

from __future__ import annotations

from itertools import count
from operator import mul
from typing import Iterator

from .childset import ChildSet
from .engine import count_trees
from .polyint import falling_factorial, poly_mul_trunc
from .recurrence import exact_nullspace

Poly = list[int]

# Derived ODE coefficients c[k][j] per child set, kept for the process.
_ODES: dict[ChildSet, tuple[tuple[int, ...], ...]] = {}


def _mul(a: Poly, b: Poly) -> Poly:
    return poly_mul_trunc(a, b, len(a) + len(b) - 2)


def _derivative(a: Poly) -> Poly:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def _sub(a: Poly, b: Poly) -> Poly:
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return [x - y for x, y in zip(a, b)]


def _search_cost(cols: int) -> int:
    """Work of one exact_nullspace call on cols columns, in per-n steps.

    Fitted on a 2-core x86-64 VM under CPython 3.11.  A per-n step (one
    big-int multiply-add of the power kernel) took 0.13-0.15 us in count
    ranges over 1..2000 at |S| = 3..6.  The echelon scan stops after about
    cols rows, whose entries grow with every row kept, so a call took
    about cols**5 / 5000 steps whatever the height: 3-18 ms at 50 columns,
    70-490 ms at 88, with a kernel or without.
    """
    return cols**5 // 5000


def count_ode(
    child_set: ChildSet, budget: int | None = None
) -> tuple[tuple[int, ...], ...] | None:
    """Integer c[k][j] with sum_kj c[k][j] * x^j * u^(k) = 0, or None.

    None means the search would exceed `budget` coefficient steps (see
    _search_cost); without a budget it always succeeds.  A found ODE is
    cached per child set.
    """
    if child_set in _ODES:
        return _ODES[child_set]
    phi = child_set.offspring_polynomial()
    delta = [(1 - i) * c for i, c in enumerate(phi)]  # phi - u*phi'
    delta_prime = _derivative(delta)
    phi_squared = _mul(phi, phi)
    numerators = [[0, 1], phi_squared]  # P_0, P_1, ...
    delta_powers = [[1]]
    spent = 0
    for cols in count(2):
        for order in range(1, max(child_set.max_count, 1) + 1):
            if cols % (order + 1):
                continue
            degree = cols // (order + 1) - 1
            spent += _search_cost(cols)
            if budget is not None and spent > budget:
                return None
            while len(numerators) <= order:
                k = len(numerators) - 1
                inner = _sub(
                    _mul(_derivative(numerators[k]), delta),
                    [(2 * k - 1) * c for c in _mul(numerators[k], delta_prime)],
                )
                numerators.append(_mul(phi_squared, inner))
            while len(delta_powers) < 2 * order:
                delta_powers.append(_mul(delta, delta_powers[-1]))
            columns = []
            for k in range(order + 1):
                e_k = 2 * k - 1 if k else 0
                column = _mul(delta_powers[2 * order - 1 - e_k], numerators[k])
                # by_j[i] = phi^i * Delta^(2K-1-e_k) * P_k, the column of j = d - i
                by_j = [column]
                for _ in range(degree):
                    by_j.append(_mul(phi, by_j[-1]))
                columns += ([0] * j + by_j[degree - j] for j in range(degree + 1))
            height = max(map(len, columns))
            rows = ([c[i] if i < len(c) else 0 for c in columns] for i in range(height))
            basis = exact_nullspace(rows, cols)
            if basis:
                width = degree + 1
                ode = tuple(
                    tuple(basis[0][k * width : (k + 1) * width])
                    for k in range(order + 1)
                )
                _ODES[child_set] = ode
                return ode


def count_range(child_set: ChildSet, lo: int, hi: int) -> Iterator[int]:
    """f_lo, ..., f_hi, each yielded as soon as it is known.

    Uses the derived recurrence when count_ode finds one within a tenth of
    the range's per-n work (|S| * sum(n) coefficient steps), else
    count_trees per n.  An inexact step is an internal bug and raises
    ArithmeticError.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    return _count_steps(child_set, lo, hi)


def _count_steps(child_set: ChildSet, lo: int, hi: int) -> Iterator[int]:
    ode = count_ode(child_set, len(child_set) * (lo + hi) * (hi - lo + 1) // 20)
    if ode is None:
        for n in range(lo, hi + 1):
            yield count_trees(child_set, n)
        return
    # ff(i, k) has degree k in i, so no shift of a nonzero c[k][j] has a
    # weight that vanishes at every n: those shifts bound the relation
    terms = [(k - j, k, c) for k, row in enumerate(ode) for j, c in enumerate(row) if c]
    low, top = min(terms)[0], max(terms)[0]
    window = [0] * (top - low)  # f_(n-top+low) .. f_(n-1); f_i = 0 for i <= 0
    for n in range(1, hi + 1):
        weights = [0] * (top - low + 1)  # weights[t - low] multiplies f_(n-top+t)
        for t, k, c in terms:
            weights[t - low] += c * falling_factorial(n - top + t, k)
        lead = weights.pop()
        if lead == 0:
            value = count_trees(child_set, n)
        else:
            value, rest = divmod(-sum(map(mul, weights, window)), lead)
            if rest:
                raise ArithmeticError(f"derived recurrence step at n={n} is not exact")
        if window:
            window.append(value)
            del window[0]
        if n >= lo:
            yield value

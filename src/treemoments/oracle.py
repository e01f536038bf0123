"""Ground truth at small n: enumeration, series fixpoint, uniform sampling.

Trees are encoded as preorder child-count sequences (Lukasiewicz codes): a
sequence c_1..c_n over the child set is a valid tree iff the partial sums of
(c_i - 1) stay >= 0 strictly before the end and finish at -1.  This module
never touches the Lagrange-inversion engine; its counts and numerators come
from direct enumeration or from iterating the defining functional equation
f = x * sum_s y_s f^s, so it can serve as an independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub
from random import Random

from .childset import ChildSet
from .errors import EnumerationTooLarge, NoTrees
from .values import Value

TreeCode = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 18
_TAIL_COUNTS = 1 << 14  # child counts a tail table of enumerate_trees may hold


def is_valid_code(child_set: ChildSet, code) -> bool:
    """Lukasiewicz validity check for a candidate preorder code."""
    if not code:
        return False
    open_slots = 1
    for c in code:
        if c not in child_set:
            return False
        if open_slots < 1:
            return False  # walk already closed before the end
        open_slots += c - 1
    return open_slots == 0


_DIGITS = {c: str(c) for c in range(10)}


def format_code(code) -> str:
    """The child counts of a code joined by spaces."""
    code = tuple(code)  # read again through str when a count is outside 0..9
    try:
        return " ".join(map(_DIGITS.__getitem__, code))
    except KeyError:
        return " ".join(map(str, code))


def parse_code(line: str) -> TreeCode:
    return tuple(int(tok) for tok in line.split())


def _tail_table(elements: tuple[int, ...], n: int) -> tuple[int, dict[int, list[TreeCode]]]:
    """(L, tails): tails[o] lists in lexicographic order every way to fill
    the last L positions of a code with o slots open before them.

    Built bottom-up by length while the table holds at most _TAIL_COUNTS
    child counts, and L <= n.
    """
    length, tails = 1, {1: [(0,)]}
    while length < n:
        opens = {k + 1 - c for k in tails for c in elements if 0 < k + 1 - c <= length + 1}
        grown = sum(len(tails.get(o + c - 1, ())) for o in opens for c in elements)
        if grown * (length + 1) > _TAIL_COUNTS:
            break
        tails = {o: [(c, *t) for c in elements for t in tails.get(o + c - 1, ())] for o in opens}
        length += 1
    return length, tails


def enumerate_trees(
    child_set: ChildSet, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[TreeCode]:
    """Yield every valid code on n vertices in lexicographic order.

    The first n - L positions are walked one at a time; at position n - L
    each tail of the right open-slot count comes from _tail_table.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise EnumerationTooLarge(f"n={n} exceeds enumeration cap {cap}")
    elements = child_set.elements
    nonzero_gcd = math.gcd(*elements[1:]) if len(elements) > 1 else 0
    width = len(elements)
    last = n - 1
    length, tails = _tail_table(elements, n)
    cut = n - length
    prefix = [0] * cut
    open_slots = [1] * (cut + 1)  # open slots before each position of the prefix
    tried = [0] * cut  # per position, how many elements have been tried there
    pos = 0
    while pos >= 0:
        if pos == cut:
            head = tuple(prefix)
            for tail in tails.get(open_slots[cut], ()):
                yield head + tail
            pos -= 1
            continue
        i = tried[pos]
        if i == width:
            tried[pos] = 0
            pos -= 1  # every choice here is done: back up one position
            continue
        tried[pos] = i + 1
        c = elements[i]
        new_open = open_slots[pos] + c - 1
        # need >= 1 vertex per open slot, and the leftover child-count
        # total (n-pos-1) - new_open must be a sum of elements of S
        surplus = last - pos - new_open
        if new_open < 1 or surplus < 0:
            continue
        if surplus and (nonzero_gcd == 0 or surplus % nonzero_gcd):
            continue
        prefix[pos] = c
        pos += 1
        open_slots[pos] = new_open


@lru_cache(maxsize=None)
def _count_distribution(child_set: ChildSet, n: int) -> dict[TreeCode, int]:
    """Map (count of s for s in child_set) -> number of trees, by enumeration."""
    elements = child_set.elements
    dist: dict[tuple[int, ...], int] = {}
    for code in enumerate_trees(child_set, n, cap=n):
        key = tuple(code.count(s) for s in elements)
        dist[key] = dist.get(key, 0) + 1
    return dist


def child_count_distribution(
    child_set: ChildSet, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> dict[tuple[int, ...], int]:
    """Joint distribution of child-count vectors over all trees on n vertices."""
    if n > cap:
        raise EnumerationTooLarge(f"n={n} exceeds enumeration cap {cap}")
    return _count_distribution(child_set, n)


def oracle_numerator(
    child_set: ChildSet,
    n: int,
    s1: int,
    p1: int,
    s2: int | None = None,
    p2: int = 0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """Direct summation of X_{s1}^p1 * X_{s2}^p2 over all enumerated trees."""
    child_set.check_statistics(s1, p1, s2, p2)
    dist = child_count_distribution(child_set, n, cap)
    i1 = child_set.index(s1)
    i2 = None if s2 is None else child_set.index(s2)
    total = 0
    for counts, mult in dist.items():
        term = counts[i1] ** p1
        if i2 is not None:
            term *= counts[i2] ** p2
        total += mult * term
    return total


class JointCoefficient(Value):
    """One monomial of the joint generating polynomial at x^n."""

    __slots__ = ("n", "exponents", "count")

    def __init__(self, n: int, exponents: tuple[int, ...], count: int) -> None:
        self._set(n, exponents, count)  # exponents align with child_set.elements


def joint_gf_fixpoint(
    child_set: ChildSet, n_max: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> dict[int, list[JointCoefficient]]:
    """Truncation of the solution of f = x * sum_s y_s f^s up to x^n_max.

    The solution has valuation 1 in x, so n_max iterations of the right-hand
    side starting from 0 pin down every coefficient through x^n_max.
    Returned monomials are sorted by exponent vector.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > cap:
        raise EnumerationTooLarge(f"n_max={n_max} exceeds cap {cap}")
    elements = child_set.elements
    width = len(elements)
    zero_exp = (0,) * width
    top = min(child_set.max_count, n_max - 1)  # x * f^exp starts at x^(exp+1)
    # series[n] maps exponent vector over (y_s) to an integer coefficient
    series: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]

    def mul(a, b):
        out: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
        for na, monos_a in enumerate(a):
            if not monos_a:
                continue
            for nb in range(n_max + 1 - na):
                monos_b = b[nb]
                if not monos_b:
                    continue
                bucket = out[na + nb]
                for ea, ca in monos_a.items():
                    for eb, cb in monos_b.items():
                        key = tuple(x + y for x, y in zip(ea, eb))
                        bucket[key] = bucket.get(key, 0) + ca * cb
        return out

    for _ in range(n_max):
        current: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
        current[0][zero_exp] = 1  # running power f^exp, starting at f^0
        new: list[dict[tuple[int, ...], int]] = [dict() for _ in range(n_max + 1)]
        for exp in range(top + 1):
            if exp in child_set:
                mark_idx = elements.index(exp)  # y_exp marks the root
                for deg in range(n_max):
                    bucket = new[deg + 1]
                    for evec, coeff in current[deg].items():
                        key = list(evec)
                        key[mark_idx] += 1
                        key = tuple(key)
                        bucket[key] = bucket.get(key, 0) + coeff
            if exp < top:
                current = mul(current, series)
        series = new

    result: dict[int, list[JointCoefficient]] = {}
    for n in range(1, n_max + 1):
        result[n] = [
            JointCoefficient(n, evec, coeff)
            for evec, coeff in sorted(series[n].items())
            if coeff
        ]
    return result


# The cycle lemma's table has O(n^(|S|-2)) rows in O(n^(|S|-3)) runs: up to
# this size it keeps O(n) checkpoints.  Above it the recursive method is
# cheaper: at S={0,1,2,3,4}, n=300 the table has 195 075 rows in 22 203
# runs, and a build plus 100 draws takes 0.45 s and 26 MB peak, against
# 0.10 s and 17 MB for the recursive method.
CYCLE_LEMMA_MAX_SET = 4


def _outer_counts(coords, budget: int):
    """Every count tuple over coords with sum(coord * count) <= budget, with
    the budget it leaves."""
    if not coords:
        yield (), budget
        return
    first, rest = coords[0], coords[1:]
    for k in range(budget // first + 1):
        for tail, left in _outer_counts(rest, budget - first * k):
            yield (k, *tail), left


def _next_row(
    k_zero: int, x: int, k_last: int, weight: int, step: int, drop: int
) -> tuple[int, int, int, int]:
    """The row after (k_zero, ..., x, k_last) in its run, with its weight.

    The inner count rises by step, the last count falls by drop and the
    count of 0 by step - drop, so the multinomial changes by a ratio of
    three falling factorials of a few small integers each.
    """
    lose = step - drop
    ratio_num = math.perm(k_last, drop) * math.perm(k_zero, lose)
    weight = weight * ratio_num // math.perm(x + step, step)
    return k_zero - lose, x + step, k_last - drop, weight


def _reweigh(weight: int, old: tuple[int, ...], new: tuple[int, ...]) -> int:
    """The multinomial of count vector new, given weight, that of old.

    Both vectors sum to the same n, so the ratio is prod(old_k!)/prod(new_k!):
    a falling factorial per count that falls over one per count that rises,
    taken with one exact division.
    """
    num = den = 1
    for a, b in zip(old, new):
        if a > b:
            num *= math.perm(a, a - b)
        elif b > a:
            den *= math.perm(b, b - a)
    return weight * num // den


def _lukasiewicz_rotation(seq: list[int]) -> TreeCode:
    """The rotation of seq that starts just after the first minimum of its walk.

    For a sequence of n child counts summing to n-1 this is the one rotation
    that is a valid code (cycle lemma).  _CycleLemma.sample takes the same
    cut from _shuffle; this walk is the reference for decision_probability.
    """
    walk = list(map(sub, accumulate(seq), range(1, len(seq) + 1)))
    cut = walk.index(min(walk)) + 1
    return tuple(seq[cut:] + seq[:cut])


def _shuffle(rng: Random, seq: list[int]) -> int:
    """rng.shuffle(seq), inline, returning the cut of _lukasiewicz_rotation.

    The same words from rng.getrandbits, the same swaps: each j below i + 1
    is drawn as Random._randbelow draws it, a word of (i + 1).bit_length()
    bits redrawn while it exceeds i.  The i that share a width form one
    block, so the width is worked out once per block.

    Position i holds its final count once swapped, so the loop keeps the
    sum of c - 1 over the suffix from i and returns the leftmost i >= 1
    where that sum is largest: there the walk of partial sums is at its
    first minimum, so seq[cut:] + seq[:cut] is the valid code when the
    counts sum to len(seq) - 1.  The empty suffix, cut len(seq), is the same
    rotation as cut 0, where the sums start.
    """
    getrandbits = rng.getrandbits
    suffix = best = cut = 0
    top = len(seq) - 1
    width = (top + 1).bit_length()
    while width > 1:
        low = (1 << (width - 1)) - 1  # the smallest i with this width
        for i in range(top, low - 1, -1):
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            c = seq[j]
            seq[j] = seq[i]
            seq[i] = c
            suffix += c - 1
            if suffix >= best:
                best = suffix
                cut = i
        top = low - 1
        width -= 1
    return cut


class _CycleLemma:
    """Draw a count vector by weight, shuffle its multiset, rotate to a tree.

    The rows are every child-count vector k (aligned with child_set.elements)
    with sum(k) = n and sum(s * k_s) = n - 1, weighted by the multinomial
    n!/prod(k_s!), the number of sequences with those counts.  Shuffling
    makes every sequence with counts k equally likely, so a sequence has
    probability 1/W for W = n * f_n, the sum of the weights, and each tree
    is the rotation of exactly n sequences (cycle lemma): probability
    n/W = 1/f_n.  Both draws take the words rng.randrange(W) and rng.shuffle
    would take, so a seed draws the same trees as those calls.  The shuffle
    also returns the cut of the one valid rotation, so a draw walks its
    sequence once.

    The count of the largest element is solved from the budget and the next
    largest is stepped so that the solved count stays integral; along that
    run of rows the weight changes by _next_row's ratio.  Each run's first
    row is weighed from the first row of the run before by _reweigh, the
    first run's from the vector of n leaves, of weight 1.  Only checkpoints
    are kept: the first row of every run and every stride-th row within it,
    with stride = ceil(rows / n), and each run is walked one stride at a
    time from checkpoint to checkpoint.  So the sampler holds at most
    runs + n weights of O(n) bits each, O(n^2) bits, and pick rebuilds any
    other row from the checkpoint before it.  For |S| <= 3 there is one run
    of at most n rows, so stride is 1 and every row is a checkpoint.
    """

    def __init__(self, child_set: ChildSet, n: int) -> None:
        self.elements = elements = child_set.elements
        self.starts: list[int] = []  # cumulative weight before each checkpoint
        self.vectors: list[tuple[int, ...]] = []  # each checkpoint's vector
        self.weights: list[int] = []  # each checkpoint's weight
        self.step = self.drop = 0  # per row of a run: inner +step, last -drop
        acc = 0
        if len(elements) <= 2:  # S = {0} or {0, s}: at most one vector
            s = elements[-1]
            k = (n - 1) // s if s else 0
            if s * k == n - 1:
                acc = math.comb(n, k)  # n!/((n - k)! k!)
                self.starts, self.vectors, self.weights = [0], [(n - k, k) if s else (n,)], [acc]
        else:
            *outer_coords, inner, last = elements[1:]
            g = math.gcd(inner, last)
            self.step, self.drop = step, drop = last // g, inner // g
            runs = []
            for outer, budget in _outer_counts(outer_coords, n - 1):
                # smallest x with inner * x = budget (mod last), if g divides budget
                x = budget // g * pow(drop, -1, step) % step
                if budget % g == 0 and inner * x <= budget:
                    runs.append((outer, x, (budget - inner * x) // last))
            # a run ends where the last count drops below drop
            stride = -(-sum(k_last // drop + 1 for _, _, k_last in runs) // n)
            # the first row of the run before; before the first run, the n
            # leaves, whose one sequence weighs 1
            first, first_weight = (n, *[0] * (len(elements) - 1)), 1
            for outer, x, k_last in runs:
                k_zero = n - sum(outer) - x - k_last
                vector = (k_zero, *outer, x, k_last)
                weight = first_weight = _reweigh(first_weight, first, vector)
                first = vector
                # left: the rows of the run after the checkpoint
                for left in range(k_last // drop, -1, -stride):
                    self.starts.append(acc)
                    self.vectors.append((k_zero, *outer, x, k_last))
                    self.weights.append(weight)
                    for _ in range(min(stride, left)):
                        acc += weight
                        k_zero, x, k_last, weight = _next_row(
                            k_zero, x, k_last, weight, step, drop
                        )
                acc += weight  # the run's last row
        if not acc:
            raise NoTrees(f"no trees on {n} vertices for child set {child_set}")
        self.total = acc  # n * f_n
        self.bits = acc.bit_length()

    def pick(self, r: int) -> tuple[int, ...]:
        """The vector of the row whose cumulative weight range holds r.

        For 0 <= r < total this is the row bisect_right would find over
        per-row cumulative weights: the last checkpoint starting at or
        before r, then the rows after it in its run, each weight
        subtracted until r falls inside one.
        """
        i = bisect_right(self.starts, r) - 1
        r -= self.starts[i]
        weight = self.weights[i]
        if r < weight:  # always, when every row is a checkpoint
            return self.vectors[i]
        k_zero, *outer, x, k_last = self.vectors[i]
        step, drop = self.step, self.drop
        while r >= weight:
            r -= weight
            k_zero, x, k_last, weight = _next_row(k_zero, x, k_last, weight, step, drop)
        return (k_zero, *outer, x, k_last)

    def sample(self, rng: Random) -> TreeCode:
        getrandbits = rng.getrandbits
        r = getrandbits(self.bits)
        while r >= self.total:  # rng.randrange(self.total), inline
            r = getrandbits(self.bits)
        seq: list[int] = []
        for s, k in zip(self.elements, self.pick(r)):
            seq += [s] * k
        cut = _shuffle(rng, seq)
        return (*seq[cut:], *seq[:cut])

    def decision_probability(self, code) -> Fraction:
        # distinct shuffles that the rotation rule turns into this code, each
        # drawn with probability 1/total
        rotations = {code[i:] + code[:i] for i in range(len(code))}
        hits = sum(_lukasiewicz_rotation(list(r)) == code for r in rotations)
        return Fraction(hits, self.total)


class _RecursiveMethod:
    """Pick the root's child count i with probability (#trees whose root has
    i children)/f_n, then split the n-1 remaining vertices among the i
    subtrees left to right, each split weighted by exact subtree-count
    products (Flajolet, Zimmermann & Van Cutsem 1994).

    The only table is conv[i][t], the number of forests of i trees on t
    vertices: O(n^2) bits per row.  Each choice subtracts its candidates'
    weights, read from conv, from one randrange draw until the draw goes
    negative, so a draw builds nothing and memory does not grow with draws.
    """

    def __init__(self, child_set: ChildSet, n: int) -> None:
        self.n = n
        self.elements = child_set.within(n).elements  # larger counts weigh 0
        max_c = max(1, self.elements[-1])
        # conv[i][t] = number of forests of i ordered trees with t vertices;
        # a forest of one tree is a tree, so conv[1] is the tree counts f
        conv = [[0] * (n + 1) for _ in range(max_c + 1)]
        conv[0][0] = 1
        f = conv[1]
        for m in range(1, n + 1):
            f[m] = sum(conv[i][m - 1] for i in self.elements)
            for i in range(2, max_c + 1):
                acc = 0
                prev = conv[i - 1]
                for a in range(1, m + 1):
                    if f[a]:
                        acc += f[a] * prev[m - a]
                conv[i][m] = acc
        if f[n] == 0:
            raise NoTrees(f"no trees on {n} vertices for child set {child_set}")
        self.tree_counts = f
        self._conv = conv

    def sample(self, rng: Random) -> TreeCode:
        """One uniform tree; consumes a deterministic number of rng draws."""
        conv = self._conv
        f = conv[1]
        elements = self.elements
        randrange = rng.randrange
        code: list[int] = []
        append = code.append
        stack = [self.n]
        while stack:
            m = stack.pop()
            if m == 1:
                append(0)
                continue
            draw = randrange(f[m])
            for i in elements:
                draw -= conv[i][m - 1]
                if draw < 0:
                    break
            append(i)
            total = m - 1
            part_sizes = []
            for parts in range(i, 1, -1):  # the last subtree's size is forced
                rest = conv[parts - 1]
                draw = randrange(conv[parts][total])
                a = 0
                while draw >= 0:
                    a += 1
                    draw -= f[a] * rest[total - a]
                part_sizes.append(a)
                total -= a
            part_sizes.append(total)
            stack.extend(reversed(part_sizes))
        return tuple(code)

    def decision_probability(self, code) -> Fraction:
        """Exact probability that sample() emits this valid code on n vertices."""
        f = self.tree_counts
        conv = self._conv
        # every subtree size from one reverse pass: the sizes of a vertex's
        # subtrees are the last code[pos] pushed, its first subtree on top
        sizes = [0] * self.n
        stack: list[int] = []
        for pos in range(self.n - 1, -1, -1):
            sizes[pos] = 1 + sum(stack.pop() for _ in range(code[pos]))
            stack.append(sizes[pos])
        prob = Fraction(1)
        for pos, i in enumerate(code):
            m = sizes[pos]
            if m == 1:
                continue
            prob *= Fraction(conv[i][m - 1], f[m])
            cursor = pos + 1
            total = m - 1
            for parts in range(i, 1, -1):  # the last subtree's size is forced
                size = sizes[cursor]
                prob *= Fraction(f[size] * conv[parts - 1][total - size], conv[parts][total])
                cursor += size
                total -= size
        return prob


class TreeSampler:
    """Exactly uniform sampler over trees on n vertices.

    For |S| <= CYCLE_LEMMA_MAX_SET it uses the cycle lemma (Dvoretzky &
    Motzkin 1947; Devroye 2012): draw a child-count vector with weight
    multinomial(n; k), shuffle, and rotate to the one valid code.  For larger
    S it uses the recursive method, whose one table holds at most max(2, n)
    rows of n + 1 forest counts whatever S is; S picks the method, so
    dropping counts of n or more changes no draw.  All weights are exact
    integers: no tree is ever rejected, neither path uses floating point,
    and the cycle lemma takes the words rng.randrange and rng.shuffle would.
    """

    def __init__(self, child_set: ChildSet, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.child_set = child_set
        self.n = n
        if len(child_set) <= CYCLE_LEMMA_MAX_SET:
            self._method = _CycleLemma(child_set, n)
        else:
            self._method = _RecursiveMethod(child_set, n)

    def sample(self, rng: Random) -> TreeCode:
        """One uniform tree; deterministic in the state of rng."""
        return self._method.sample(rng)

    def decision_probability(self, code) -> Fraction:
        """Exact probability that sample() emits this code."""
        code = tuple(code)
        if len(code) != self.n or not is_valid_code(self.child_set, code):
            return Fraction(0)  # never drawn: wrong length, child count or walk
        return self._method.decision_probability(code)


def sample_tree_uniform(child_set: ChildSet, n: int, rng_seed: int) -> TreeCode:
    """A single uniform tree, deterministic in (child_set, n, rng_seed)."""
    sampler = TreeSampler(child_set, n)
    return sampler.sample(Random(rng_seed))


class MonteCarloEstimate(Value):
    """Sample mean of a statistic with exact accumulators."""

    __slots__ = ("mean", "variance", "samples")

    def __init__(self, mean: Fraction, variance: Fraction, samples: int) -> None:
        self._set(mean, variance, samples)  # variance: the unbiased sample variance

    def within_std_errors(self, target: Fraction, k: int) -> bool:
        """Exact check |mean - target| <= k * SE (squared comparison)."""
        dev = self.mean - Fraction(target)
        return dev * dev * self.samples <= k * k * self.variance


def monte_carlo_moment(
    child_set: ChildSet,
    n: int,
    s1: int,
    p1: int,
    s2: int | None = None,
    p2: int = 0,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> MonteCarloEstimate:
    """Estimate E[X_{s1}^p1 * X_{s2}^p2] from seeded uniform samples."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    child_set.check_statistics(s1, p1, s2, p2)
    sampler = TreeSampler(child_set, n)
    rng = Random(rng_seed)
    total = 0
    total_sq = 0
    use_pair = s2 is not None and p2 > 0
    for _ in range(samples):
        code = sampler.sample(rng)
        value = code.count(s1) ** p1
        if use_pair:
            value *= code.count(s2) ** p2
        total += value
        total_sq += value * value
    mean = Fraction(total, samples)
    if samples == 1:
        variance = Fraction(0)
    else:
        variance = (Fraction(total_sq) - Fraction(total * total, samples)) / (samples - 1)
    return MonteCarloEstimate(mean, variance, samples)

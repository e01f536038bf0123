"""Ground truth at small n: enumeration, series fixpoint, uniform sampling.

Trees are encoded as preorder child-count sequences (Lukasiewicz codes): a
sequence c_1..c_n over the child set is a valid tree iff the partial sums of
(c_i - 1) stay >= 0 strictly before the end and finish at -1.  This module
never touches the Lagrange-inversion engine; its counts and numerators come
from direct enumeration or from solving the defining functional equation
f = x * sum_s y_s f^s degree by degree, so it can serve as an independent
cross-check.  Both give the joint law of the child counts in one shape: a
dict from count vector (aligned with the child set's elements) to the
number of trees with those counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
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


def format_code(code) -> str:
    """The child counts of a code joined by spaces."""
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


def joint_gf_fixpoint(
    child_set: ChildSet, n_max: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> dict[int, dict[tuple[int, ...], int]]:
    """The coefficients of x^1..x^n_max of the solution of f = x * sum_s y_s f^s.

    Entry n maps each exponent vector of the y_s (aligned with
    child_set.elements) to its coefficient, sorted: the shape
    child_count_distribution(child_set, n) answers in.  f has valuation 1,
    so [x^d] f = sum_s y_s [x^(d-1)] f^s and [x^d] f^e = sum_{0<a<d}
    [x^a] f [x^(d-a)] f^(e-1) read only degrees below d, and each degree of
    f and of its powers is computed once.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > cap:
        raise EnumerationTooLarge(f"n_max={n_max} exceeds cap {cap}")
    elements = child_set.elements
    top = min(child_set.max_count, n_max - 1)  # x * f^s starts at x^(s+1)
    marks = [(s, tuple(int(t == s) for t in elements)) for s in elements if s <= top]
    # powers[e][d] = [x^d] f^e; only f^0 = 1 has a constant term
    powers = [[{(0,) * len(elements): 1}] + [{}] * n_max]
    powers += [[{}] for _ in range(max(top, 1))]
    f = powers[1]
    for d in range(1, n_max + 1):
        f_d: dict[tuple[int, ...], int] = {}
        for s, mark in marks:  # y_s marks a root with s children
            for vec, c in powers[s][d - 1].items():
                key = tuple(map(add, vec, mark))
                f_d[key] = f_d.get(key, 0) + c
        f.append(f_d)
        for e in range(2, top + 1):
            power_d: dict[tuple[int, ...], int] = {}
            for a in range(1, d):
                for va, ca in f[a].items():
                    for vb, cb in powers[e - 1][d - a].items():
                        key = tuple(map(add, va, vb))
                        power_d[key] = power_d.get(key, 0) + ca * cb
            powers[e].append(power_d)
    return {n: dict(sorted(f[n].items())) for n in range(1, n_max + 1)}


# The cycle lemma's table has O(n^(|S|-2)) rows in O(n^(|S|-3)) runs: up to
# this size it keeps O(n) checkpoints, and its draws cost less than the
# halving word's.  Above it the halving word is cheaper: at S={0,1,2,3,4},
# n=300 the table has 195 075 rows in 22 203 runs, and a build plus 100
# draws takes 0.35 s and 24.6 MB peak, against 0.04 s and 15.5 MB (the
# interpreter's floor) for the halving word.
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
    that is a valid code (cycle lemma).  _HalvingWord.sample cuts its word
    here, _CycleLemma.sample takes the same cut from _shuffle, and
    TreeSampler.decision_probability counts the rotations it cuts to a code.
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


class _HalvingWord:
    """Draw a word of n child counts summing to n - 1 by halving its sum.

    The words of m letters from S with sum r number c(m, r) = [z^r] phi^m
    for phi = sum(z^s for s in S).  A word of m > 1 letters splits into
    halves of a = m // 2 and b = m - a letters, and the first half's sum r1
    is drawn with weight c(a, r1) * c(b, r - r1) from one draw below
    c(m, r): the weights are subtracted from it, r1 scanned outward from
    r * a // m (Flajolet, Zimmermann & Van Cutsem 1994), until it goes
    negative.  The weights of a split sum to c(m, r), so every word has
    probability 1/total for total = c(n, n - 1) = n * f_n, and its rotation
    by _lukasiewicz_rotation is a tree of probability n/total = 1/f_n
    (cycle lemma).  Each draw takes the words rng.randrange(c(m, r)) would.

    Only the sizes that halving n reaches have a row, about 2 * log2(n) of
    them, each of the n coefficients of degree below n, built by the power
    recurrence j * p_j = sum_k ((m + 1) * k - j) * p_(j-k) over the nonzero
    k in S: big-by-small steps, each division exact.  A draw builds nothing.
    """

    def __init__(self, child_set: ChildSet, n: int) -> None:
        self.n = n
        steps = child_set.within(n).elements[1:]  # larger counts weigh 0
        sizes: set[int] = set()
        level = {n}
        while level:
            sizes |= level
            level = {h for m in level if m > 1 for h in (m // 2, m - m // 2)}
        self.rows: dict[int, list[int]] = {}
        rows = self.rows
        for m in sizes:
            row = rows[m] = [1] + [0] * (n - 1)
            for j in range(1, min(n, m * steps[-1] + 1) if steps else 1):
                acc = 0
                for k in steps:
                    if k > j:
                        break
                    acc += ((m + 1) * k - j) * row[j - k]
                row[j] = acc // j
        self.total = rows[n][n - 1]  # n * f_n
        if not self.total:
            raise NoTrees(f"no trees on {n} vertices for child set {child_set}")

    def sample(self, rng: Random) -> TreeCode:
        rows = self.rows
        getrandbits = rng.getrandbits
        word: list[int] = []
        append = word.append
        stack = [self.n, self.n - 1]  # (letters, sum) of each half to draw, flat
        pop = stack.pop
        while stack:
            r = pop()
            m = pop()
            if m == 1:
                append(r)
                continue
            a = m >> 1
            left = rows[a]
            right = rows[m - a]
            total = rows[m][r]
            width = total.bit_length()
            draw = getrandbits(width)
            while draw >= total:  # rng.randrange(total), inline
                draw = getrandbits(width)
            r1 = lo = hi = r * a // m
            draw -= left[r1] * right[r - r1]
            while draw >= 0:
                if hi < r:
                    hi += 1
                    draw -= left[hi] * right[r - hi]
                    if draw < 0:
                        r1 = hi
                        break
                if lo:
                    lo -= 1
                    draw -= left[lo] * right[r - lo]
                    r1 = lo
            stack += (m - a, r - r1, a, r1)
        return _lukasiewicz_rotation(word)


class TreeSampler:
    """Exactly uniform sampler over trees on n vertices.

    Both methods draw a uniform word of n child counts summing to n - 1 and
    rotate it to its one valid code (cycle lemma: Dvoretzky & Motzkin 1947;
    Devroye 2012), so each tree has probability n/total = 1/f_n.  For |S| <=
    CYCLE_LEMMA_MAX_SET the word is a child-count vector drawn with weight
    multinomial(n; k), then shuffled.  For larger S it is drawn by halving
    its sum, from about 2 * log2(n) rows of powers of phi up to degree n - 1,
    whatever max S is; S picks the method, so dropping counts of n or more
    changes no draw.  All weights are exact integers: no tree is ever
    rejected, neither path uses floating point, and both take the words
    rng.randrange (and rng.shuffle) would.
    """

    def __init__(self, child_set: ChildSet, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.child_set = child_set
        self.n = n
        if len(child_set) <= CYCLE_LEMMA_MAX_SET:
            self._method = _CycleLemma(child_set, n)
        else:
            self._method = _HalvingWord(child_set, n)

    def sample(self, rng: Random) -> TreeCode:
        """One uniform tree; deterministic in the state of rng."""
        return self._method.sample(rng)

    def decision_probability(self, code) -> Fraction:
        """Exact probability that sample() emits this code."""
        code = tuple(code)
        if len(code) != self.n or not is_valid_code(self.child_set, code):
            return Fraction(0)  # never drawn: wrong length, child count or walk
        # both methods draw each word with probability 1/total; count the
        # distinct words that the rotation rule turns into this code
        rotations = {code[i:] + code[:i] for i in range(len(code))}
        hits = sum(_lukasiewicz_rotation(list(r)) == code for r in rotations)
        return Fraction(hits, self._method.total)


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

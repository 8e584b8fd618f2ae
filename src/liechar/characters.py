"""Exact arithmetic in the ring of W-invariant characters.

A Character is a finitely supported integer map on the weight lattice,
stored over the full lattice (no orbit compression) as a read-only mapping
from weight tuples to multiplicities, so cached characters can be shared.
All coefficients are unbounded Python integers; all operations are exact.

Weyl characters, Weyl-basis coefficients and quotients by the Steinberg
character all come from Weyl's formula (Humphreys, GTM 9, section 24;
Jantzen, RAGS II.3).  Let d = sum over w in W of sgn(w) e^{w rho} be the
Weyl denominator and d^(m) = sum_w sgn(w) e^{m w rho}, which is
e^{m rho} times the product over alpha > 0 of (1 - e^{-m alpha}).  Two
helpers are the only code that multiplies or divides by them:
_times_denominator forms chi * d for a W-invariant chi, and
_over_denominator divides by d^(m), shifting by -m rho and then dividing
exactly by each (1 - e^{-m alpha}).  chi(lam) * d is the signed orbit of
lam + rho, so chi(lam) is that orbit over d; the coefficient of chi(lam) in
a W-invariant chi is the multiplicity of lam + rho in chi * d; and since
ch St_r = chi((p^r - 1) rho) = d^(p^r) / d, the quotient chi / St_r is
chi * d over d^(p^r) (pims.character_divide).  Leading-term elimination
(expand) serves only the simple basis, which has no such formula.

expand eliminates in the translation-invariant total order (scaled height,
tuple), largest first.  Each basis element basis(lam) has lam as its only
weight of the greatest height, and for a W-invariant chi the greatest
weight of the support in that order is dominant.  The dominant weights of
the residual are kept on a heap keyed by that order: a weight is pushed
when it first gets a nonzero value and popped lazily, an entry whose weight
has since cancelled being skipped.  Subtracting c * basis(lead) changes
only weights below lead, so the leads come in strictly decreasing order and
no later step touches a weight at or above the current lead.  Hence once a
lead falls below a target weight t, t's coefficient is final (0 if t was
never a lead), and a caller that wants one coefficient can stop there
(decomp.simple_multiplicity).

The product is a convolution on packed integer keys.  Both operands are
shifted so that every coordinate starts at 0, and each weight becomes one
mixed-radix integer whose coordinate i has radix span_a[i] + span_b[i] + 1
(span = max - min of that coordinate over the operand's support).  A sum of
two shifted coordinates is at most that radix minus one, so adding two keys
never carries from one digit into the next and the sum of keys is the key
of the sum of weights.  Only the product's own support is decoded back into
tuples, one coordinate at a time: coordinate i of every nonzero key is read
in one pass as (key // stride_i) % radix_i plus the low corner, stride_i
being the product of the later radices, and the columns are zipped into
weight tuples.  Tuple-keyed supports remain the only stored representation.

Because keys add without carrying, the product is a polynomial product in
one variable X: each operand is the sum of m * X**k over its (key, mult)
pairs, and the product's coefficient at X**k is its multiplicity at key k.
Two paths compute it, chosen by the size of the packed box, prod(radices)
slots (every product key lies below it), against the term count
len(a) * len(b):

* box <= terms: Kronecker substitution.  X becomes 2**(8 * width) and the
  product is one big-integer multiply.  By Cauchy-Schwarz every coefficient
  is at most ||a||_2 * ||b||_2 <= isqrt(sum ma^2 * sum mb^2) in absolute
  value, so width is the least of 1, 2, 4 or 8 bytes (beyond 8, the least
  byte count) holding that bound and a sign bit.  Adding half =
  2**(8 * width - 1) to every slot makes each slot c + half, in
  [0, 2 * half), so no slot borrows from the next; the slots are read back
  from the bytes of that sum, and those not equal to half are the nonzero
  coefficients.
* box > terms: a dict loop accumulating ma * mb at key ka + kb.  Sparse
  boxes, such as Frobenius twists by p^s, would otherwise cost memory and
  time in the box size rather than the term count.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import add, sub
from types import MappingProxyType

from .errors import (
    DataValidationError,
    DivisionFailure,
    LiecharError,
    NonDominantError,
    NonInvariantError,
    RankMismatchError,
    strict_int,
    strict_int_tuple,
)
from .rootdata import MAX_WEYL_WEIGHTS, RootSystem


class Character:
    """Finitely supported integer-valued function on the weight lattice.

    Virtual characters (negative multiplicities) are allowed; W-invariance
    is a property of most public inputs but is not enforced here.  rank and
    support cannot be reassigned once set, so cached characters can be shared.
    The only other state is the memo of by_height.
    """

    __slots__ = ("rank", "support", "_by_height")

    def __init__(self, rank, support=None):
        checked = {}
        if support:
            for weight, mult in support.items():
                if len(weight) != rank:
                    raise RankMismatchError(
                        f"weight {weight} has length {len(weight)}, expected {rank}"
                    )
                mult = strict_int(mult, "multiplicity")
                if mult != 0:
                    checked[strict_int_tuple(weight, "weight")] = mult
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "support", MappingProxyType(checked))

    @classmethod
    def _wrap(cls, rank, support):
        """The character over support, a new dict of nonzero multiplicities at
        weight tuples of length rank; taken as it is, without checks or copy."""
        chi = cls.__new__(cls)
        object.__setattr__(chi, "rank", rank)
        object.__setattr__(chi, "support", MappingProxyType(support))
        return chi

    def __setattr__(self, name, value):
        raise AttributeError(f"Character is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Character is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by setattr.
        return Character, (self.rank, dict(self.support))

    def _check_compatible(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(
                f"rank mismatch: {self.rank} versus {other.rank}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.support == other.support
        )

    def __bool__(self):
        return bool(self.support)

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.support)
        for w, m in other.support.items():
            new = out.get(w, 0) + m
            if new:
                out[w] = new
            else:
                out.pop(w, None)
        return Character._wrap(self.rank, out)

    def __neg__(self):
        return Character._wrap(self.rank, {w: -m for w, m in self.support.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Scale by an int, or convolve with a Character of the same rank.

        The convolution packs each weight into one mixed-radix integer key
        (see the module docstring), forms the product of the packed
        operands by one big-integer multiply or, for sparse boxes, a dict
        loop, and decodes only the nonzero coefficients.  A product with
        the trivial character e^0 is the other factor itself, shared, since
        characters are read-only.
        """
        if isinstance(other, int):
            if other == 0:
                return Character(self.rank)
            return Character._wrap(
                self.rank, {w: m * other for w, m in self.support.items()}
            )
        self._check_compatible(other)
        if other._is_unit():
            return self
        if self._is_unit():
            return other
        if not (self.support and other.support):
            return Character(self.rank)
        return Character._wrap(self.rank, _convolve(self.support, other.support))

    __rmul__ = __mul__

    def _is_unit(self):
        """Whether this is the trivial character e^0."""
        return len(self.support) == 1 and self.support.get((0,) * self.rank) == 1

    def by_height(self, rs):
        """(scaled height on rs, weight, mult) over the support, in decreasing
        height; memoized for the last root system asked."""
        memo = getattr(self, "_by_height", None)
        if memo is None or memo[0] is not rs:
            height = rs.scaled_height
            items = self.support.items()
            memo = (rs, sorted(((height(w), w, m) for w, m in items), reverse=True))
            object.__setattr__(self, "_by_height", memo)
        return memo[1]

    def dimension(self):
        """Value at the identity: the sum of all multiplicities."""
        return sum(self.support.values())

    def get(self, weight, default=0):
        return self.support.get(tuple(weight), default)

    def sorted_items(self):
        return sorted(self.support.items())

    def to_json_dict(self):
        return {
            "rank": self.rank,
            "entries": [
                {"weight": list(w), "mult": m} for w, m in self.sorted_items()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc):
        rank = strict_int(doc["rank"], "rank")
        support = {}
        for entry in doc["entries"]:
            weight = strict_int_tuple(entry["weight"], "weight")
            if weight in support:
                raise DataValidationError(f"duplicate weight {weight}")
            support[weight] = entry["mult"]
        return cls(rank, support)

    def __repr__(self):
        items = ", ".join(f"{w}: {m}" for w, m in self.sorted_items())
        return f"Character({{{items}}})"


def _convolve(a, b):
    """The support of the product of two nonempty supports of equal rank."""
    low_a, span_a = _bounds(a)
    low_b, span_b = _bounds(b)
    radices = [sa + sb + 1 for sa, sb in zip(span_a, span_b)]
    packed_a = _pack(a, low_a, radices)
    packed_b = _pack(b, low_b, radices)
    slots = math.prod(radices)
    if slots <= len(a) * len(b):
        terms = _kronecker_product(packed_a, packed_b, slots)
    else:
        terms = _loop_product(packed_a, packed_b)
    keys = []
    mults = []
    for k, m in terms:
        if m:
            keys.append(k)
            mults.append(m)
    # Decode one coordinate at a time: coordinate i is digit i of the key,
    # whose place value is the product of the later radices, plus the
    # product's low corner.
    low = [la + lb for la, lb in zip(low_a, low_b)]
    strides = [math.prod(radices[i + 1 :]) for i in range(len(radices))]
    columns = [
        [k // stride % radix + lo for k in keys]
        for stride, radix, lo in zip(strides, radices, low)
    ]
    # At rank 0 there are no columns, and the one weight is ().
    weights = zip(*columns) if columns else [()] * len(mults)
    return dict(zip(weights, mults))


def _loop_product(packed_a, packed_b):
    """(key, coefficient) pairs of the product by a double loop over terms.

    Coefficients that cancel to 0 are kept; the caller drops them.
    """
    out = {}
    get = out.get
    for ka, ma in packed_a:
        for kb, mb in packed_b:
            k = ka + kb
            out[k] = get(k, 0) + ma * mb
    return out.items()


# memoryview formats of the unsigned native integers of 1, 2, 4 and 8 bytes.
# Slots are laid out little-endian, so they are read this way only on
# little-endian hosts; elsewhere (and for wider slots) by byte slices.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _kronecker_product(packed_a, packed_b, slots):
    """Nonzero (key, coefficient) pairs of the product by one integer multiply.

    Each operand becomes the integer sum of m * X**k with X = 2**(8 * width):
    the product's coefficient at key k sits in slot k of the product
    integer, since keys below `slots` never carry (see the module docstring).
    """
    norm_a = sum(m * m for _, m in packed_a)
    norm_b = sum(m * m for _, m in packed_b)
    # Cauchy-Schwarz: every coefficient, and every operand multiplicity, is
    # at most isqrt(norm_a * norm_b) in absolute value; one more bit holds
    # the sign.
    width = (math.isqrt(norm_a * norm_b).bit_length() + 8) // 8
    width = next((w for w in (1, 2, 4, 8) if w >= width), width)
    half = 1 << (8 * width - 1)
    product = _kronecker_operand(packed_a, slots, width) * _kronecker_operand(
        packed_b, slots, width
    )
    # Adding half to every slot makes each slot c + half, in [0, 2 * half):
    # no slot borrows from the next, and a zero coefficient reads as half.
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = (product + offset).to_bytes(slots * width, "little")
    fmt = _SLOT_FORMATS.get(width)
    if fmt is None:
        values = (
            int.from_bytes(data[i : i + width], "little")
            for i in range(0, len(data), width)
        )
    else:
        values = memoryview(data).cast(fmt)
    # A generator, not a list: a list of (key, coefficient) tuples would
    # interleave with the result's weight tuples in the allocator's pools
    # and raise the peak memory of the rest of the run.
    return ((k, v - half) for k, v in enumerate(values) if v != half)


def _kronecker_operand(packed, slots, width):
    """The integer sum of m * 2**(8 * width * k) over (k, m) in packed."""
    positive = bytearray(slots * width)
    negative = bytearray(slots * width)
    for k, m in packed:
        start = k * width
        if m > 0:
            positive[start : start + width] = m.to_bytes(width, "little")
        else:
            negative[start : start + width] = (-m).to_bytes(width, "little")
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _bounds(support):
    """Per-coordinate minimum and span (max - min) over a nonempty support."""
    low = []
    span = []
    for coords in zip(*support):
        lo = min(coords)
        low.append(lo)
        span.append(max(coords) - lo)
    return low, span


def _pack(support, low, radices):
    """(key, mult) pairs; w's key has digit w_i - low_i in radix radices[i].

    The first coordinate is the most significant digit.
    """
    packed = []
    for w, m in support.items():
        k = 0
        for c, lo, radix in zip(w, low, radices):
            k = k * radix + (c - lo)
        packed.append((k, m))
    return packed


def check_printable_power(p, s, what):
    """LiecharError naming `what` s if p**s is too long to print.

    Checked before p**s is computed, which could run for minutes; the limit
    is sys.get_int_max_str_digits(), or Python's default when that is 0.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if s * math.log10(p) >= limit:
        raise LiecharError(
            f"{what} {s} is too large: {p}**{s} has more than {limit} digits"
        )


def frobenius_twist(chi, p, s):
    """Scale every support weight by p^s, keeping multiplicities.

    An exponent with p^s too long to print is rejected (check_printable_power).
    """
    if s < 0:
        raise ValueError(f"twist exponent must be nonnegative, got {s}")
    if s == 0:
        return chi
    check_printable_power(p, s, "twist exponent")
    factor = p**s
    return Character._wrap(
        chi.rank, {tuple(factor * c for c in w): m for w, m in chi.support.items()}
    )


def formal_dual(chi):
    """Negate every support weight; an involution."""
    return Character._wrap(
        chi.rank, {tuple(-c for c in w): m for w, m in chi.support.items()}
    )


def weyl_character(lam, rs: RootSystem):
    """The full weight-multiplicity character of the costandard module.

    Weyl's formula: the signed orbit of lam + rho over the Weyl denominator.
    Memoized per (root system, lam).  LiecharError when the support could
    exceed MAX_WEYL_WEIGHTS, bounded before the orbit is formed by |W| times
    the number of dominant weights below lam.  Those are counted in the box
    of root coordinates that dominant_weights_below scans; a box of more
    than MAX_WEYL_WEIGHTS points is refused, bounded by |W| times its size,
    without being scanned.
    """
    lam = tuple(lam)
    rs.check_rank(lam)
    cached = rs._weyl_char_cache.get(lam)
    if cached is not None:
        return cached
    if not rs.is_dominant(lam):
        raise NonDominantError(f"highest weight {lam} is not dominant")
    box = math.prod(n // rs.det + 1 for n in rs.scaled_root_coords(lam))
    bound = len(rs.weyl_denominator) * box
    if bound > MAX_WEYL_WEIGHTS and box <= MAX_WEYL_WEIGHTS:
        bound = len(rs.weyl_denominator) * rs.count_dominant_below(lam)
    if bound > MAX_WEYL_WEIGHTS:
        raise LiecharError(
            f"chi{lam} is too large: up to {bound} weights, more than {MAX_WEYL_WEIGHTS}"
        )
    orbit = rs.signed_orbit(tuple(c + 1 for c in lam))
    chi = rs._weyl_char_cache[lam] = Character._wrap(
        rs.rank, _over_denominator(orbit, rs, 1)
    )
    return chi


def _times_denominator(chi, rs):
    """The support of chi * d, d = rs.weyl_denominator, for a W-invariant chi;
    NonInvariantError naming a weight w with chi(s_i w) != chi(w) otherwise."""
    support = chi.support
    indices = range(rs.rank)
    for w, m in support.items():
        # s_i fixes w when w_i = 0.
        for i in indices:
            if w[i] and support.get(rs.simple_reflection(i, w)) != m:
                raise NonInvariantError(f"character is not W-invariant at {w}")
    return _convolve(support, rs.weyl_denominator) if support else {}


def _over_denominator(f, rs, m):
    """The support of f / d^(m), where d^(m) = sum_w sgn(w) e^{m w rho} =
    e^{m rho} * prod over alpha > 0 of (1 - e^{-m alpha}): f shifted by
    -m rho, then divided by each factor.  DivisionFailure if one does not
    divide exactly."""
    q = {tuple(c - m for c in w): mult for w, mult in f.items()}  # rho = (1, ..., 1)
    for alpha in rs.positive_roots:
        q = _divide_by_root(q, tuple(m * a for a in alpha))
    return q


def _divide_by_root(f, alpha):
    """q with q * (1 - e^{-alpha}) = f: q(mu) = sum_{k >= 0} f(mu + k alpha),
    summed down each alpha-string, whose total must be 0.  DivisionFailure
    names the least of the lowest weights of the strings whose total is not,
    so that it does not depend on the order of f."""
    j = next(i for i, a in enumerate(alpha) if a)
    multiples = {}
    strings = {}
    for mu, m in f.items():
        k = mu[j] // alpha[j]
        if k not in multiples:
            multiples[k] = tuple(k * a for a in alpha)
        strings.setdefault(tuple(map(sub, mu, multiples[k])), {})[k] = m
    q = {}
    leftovers = []
    for base, string in strings.items():
        top = max(string)
        mu = tuple(map(add, base, multiples[top]))
        total = 0
        for k in range(top, min(string) - 1, -1):
            total += string.get(k, 0)
            if total:
                q[mu] = total
            mu = tuple(map(sub, mu, alpha))
        if total:
            leftovers.append((tuple(map(add, mu, alpha)), total))
    if leftovers:
        raise DivisionFailure(*min(leftovers))
    return q


def leading_dominant_weights(support, rs):
    """Dominant support weights maximal under dominance (possibly several).

    In decreasing height, whatever lies above a weight comes before it.
    Each weight's scaled_root_coords are computed once: their sum is its
    scaled height, and w <= m is read off the coordinates of m minus w's.
    """
    scaled = [(rs.scaled_root_coords(w), w) for w in support if rs.is_dominant(w)]
    scaled.sort(key=lambda item: sum(item[0]), reverse=True)
    maximal = []
    for coords, w in scaled:
        if not any(rs.is_scaled_nonnegative(map(sub, top, coords)) for top, _ in maximal):
            maximal.append((coords, w))
    return [w for _, w in maximal]


def _not_invariant(weight, mult):
    return NonInvariantError(
        f"character is not W-invariant: residual leading weight {weight}"
    )


def expand(chi, rs, basis):
    """Yield (lam, c) with chi = sum c * basis(lam), by leading-term elimination.

    basis(lam) is a character whose other weights lie strictly below lam in
    the (scaled height, tuple) order, so the leads come in strictly
    decreasing order and a coefficient, once yielded, is final (see the
    module docstring).  The dominant weights of the residual sit on a heap
    keyed by that order, pushed when they enter it and skipped when popped
    after they have cancelled.  NonInvariantError, raised before the lead
    it names is yielded, when no dominant weight is left or a lead's
    multiplicity is not a multiple of basis(lead)'s.
    """
    height = rs.scaled_height

    def entry(w):
        return (-height(w), tuple(-c for c in w), w)

    work = dict(chi.support)
    heap = [entry(w) for w in work if min(w) >= 0]
    heapq.heapify(heap)
    while work:
        while heap and heap[0][2] not in work:
            heapq.heappop(heap)
        if not heap:
            raise _not_invariant(*max(work.items()))
        lead = heapq.heappop(heap)[2]
        mult = work.pop(lead)
        element = basis(lead)
        unit = element.support.get(lead)
        if not unit or mult % unit:
            raise _not_invariant(lead, mult)
        c = mult // unit
        yield lead, c
        for w, m in element.support.items():
            if w == lead:
                continue
            old = work.get(w, 0)
            new = old - c * m
            if new:
                work[w] = new
                if not old and min(w) >= 0:
                    heapq.heappush(heap, entry(w))
            else:
                del work[w]


def to_weyl_basis(chi, rs):
    """Weyl-basis coefficients of a W-invariant character, else NonInvariantError:
    [chi : chi(lam)] is the multiplicity of lam + rho in chi * rs.weyl_denominator."""
    product = _times_denominator(chi, rs)
    return {tuple(c - 1 for c in w): m for w, m in product.items() if min(w) > 0}


def from_weyl_basis(coeffs, rs):
    """Inverse of to_weyl_basis: assemble sum of c * chi(lam)."""
    total = Character(rs.rank)
    for lam, c in coeffs.items():
        total = total + c * weyl_character(tuple(lam), rs)
    return total


def steinberg_character(rs, p, r):
    """chi((p^r - 1) rho)."""
    return weyl_character(rs.steinberg_weight(p, r), rs)

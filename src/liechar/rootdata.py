"""Root-system combinatorics in fundamental-weight coordinates.

Weights are plain tuples of integers: the coefficients of the fundamental
weights (omega_1, ..., omega_l).  A simple root alpha_i is represented by
row i of the Cartan matrix, since <alpha_i, alpha_j^vee> is exactly its
j-th fundamental coordinate.  All linear algebra is exact: one
fraction-free integer elimination per Cartan matrix gives det(C) and
det(C) * C^-1, and every per-call lattice operation after that runs on
plain integers.  Fraction remains only in _symmetrizer, _form_matrix and
root_coords.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .errors import (
    DataValidationError,
    LiecharError,
    NonDominantError,
    NotFiniteTypeError,
    RankMismatchError,
    strict_int_tuple,
)

#: Largest set of weights built at once: the support of a Weyl character
#: (characters.weyl_character), the digit product bounding a non-restricted
#: simple character (DecompositionProvider.simple_character), the
#: restricted weights X_r, or the weight grid of a CLI sweep.
MAX_WEYL_WEIGHTS = 10**6

BUILTIN_CARTAN_MATRICES = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def _form_matrix(adj, det, symmetrizer):
    """(omega_i, omega_j) with (alpha_k, alpha_k) = 2 d_k, times the least integer
    that clears every denominator."""
    gram = [[Fraction(a, det) * d for a, d in zip(row, symmetrizer)] for row in adj]
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    return tuple(tuple(int(x * scale) for x in row) for row in gram)


def _positive_definite_adjugate(rows):
    """det(C) and the integer matrix det(C) * C^-1, by one fraction-free
    (Bareiss) Gauss-Jordan pass over [C | I] without row exchanges.

    The k-th pivot is the k-th leading principal minor of C, which has the
    sign of that of C * D for the positive symmetrizer D, so the symmetrized
    matrix is positive definite iff every pivot is positive (Sylvester);
    NotFiniteTypeError at the first that is not.  Every division is exact.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    previous = 1
    for k in range(n):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise NotFiniteTypeError(
                "symmetrized matrix is not positive definite (not finite type)"
            )
        for i, row in enumerate(aug):
            if i != k:
                factor = row[k]
                aug[i] = [
                    (pivot * x - factor * y) // previous
                    for x, y in zip(row, pivot_row)
                ]
        previous = pivot
    return previous, tuple(tuple(row[n:]) for row in aug)


class CartanMatrix:
    """A finite-type Cartan matrix; entry (i, j) is <alpha_i, alpha_j^vee>.

    Validated at construction: square, 2 on the diagonal, nonpositive off
    the diagonal, zero-symmetric, symmetrizable with positive-definite
    symmetrization.  The elimination that checks the last also gives det
    and adjugate, the integer matrix det * C^-1.
    """

    def __init__(self, entries):
        rows = tuple(strict_int_tuple(row, "Cartan matrix row") for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise NotFiniteTypeError(f"matrix is not square: {entries!r}")
        for i in range(n):
            if rows[i][i] != 2:
                raise NotFiniteTypeError(
                    f"diagonal entry ({i},{i}) is {rows[i][i]}, expected 2"
                )
            for j in range(n):
                if i == j:
                    continue
                if rows[i][j] > 0:
                    raise NotFiniteTypeError(
                        f"off-diagonal entry ({i},{j}) is {rows[i][j]}, expected <= 0"
                    )
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise NotFiniteTypeError(
                        f"entries ({i},{j}) and ({j},{i}) disagree on vanishing"
                    )
        self.entries = rows
        self.rank = n
        self.symmetrizer = self._symmetrizer()
        self.det, self.adjugate = _positive_definite_adjugate(rows)

    def _symmetrizer(self):
        """Positive d with d_j * a_ij = d_i * a_ji, by graph propagation."""
        n = self.rank
        d = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            queue = [start]
            while queue:
                i = queue.pop()
                for j in range(n):
                    if i == j or self.entries[i][j] == 0:
                        continue
                    required = d[i] * self.entries[j][i] / self.entries[i][j]
                    if d[j] is None:
                        d[j] = required
                        queue.append(j)
                    elif d[j] != required:
                        raise NotFiniteTypeError(
                            f"matrix is not symmetrizable at entry ({i},{j})"
                        )
        return tuple(d)

    @classmethod
    def builtin(cls, name):
        try:
            return cls(BUILTIN_CARTAN_MATRICES[name])
        except (KeyError, TypeError):
            raise NotFiniteTypeError(
                f"unknown built-in type {name!r}; known: "
                + ", ".join(sorted(BUILTIN_CARTAN_MATRICES))
            ) from None

    @classmethod
    def from_json_dict(cls, doc):
        """Build from {"type": name} or {"rank": l, "matrix": [[...]]}."""
        if not isinstance(doc, dict):
            raise NotFiniteTypeError(f"Cartan document must be an object, got {doc!r}")
        if "type" in doc:
            return cls.builtin(doc["type"])
        matrix = doc.get("matrix")
        if matrix is None:
            raise NotFiniteTypeError("document needs a 'type' or 'matrix' key")
        if "rank" in doc and doc["rank"] != len(matrix):
            raise NotFiniteTypeError(
                f"declared rank {doc['rank']} does not match matrix size {len(matrix)}"
            )
        return cls(matrix)

    def __eq__(self, other):
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"CartanMatrix({list(map(list, self.entries))})"


class RootSystem:
    """Immutable root-system data derived from a Cartan matrix.

    Carries the positive roots, rho, the Weyl denominator (read-only
    {w rho: sgn(w)}) and the longest-element action.
    """

    def __init__(self, cartan):
        if not isinstance(cartan, CartanMatrix):
            cartan = CartanMatrix(cartan)
        self.cartan = cartan
        self.rank = cartan.rank
        self.det, adj = cartan.det, cartan.adjugate
        self._adj_columns = tuple(zip(*adj))
        self._height_vector = tuple(map(sum, adj))
        self._form = _form_matrix(adj, self.det, cartan.symmetrizer)
        self.rho = (1,) * self.rank
        self.positive_roots = self._generate_positive_roots()
        self._w0_word = self._compute_w0_word()
        self.weyl_denominator = MappingProxyType(self.signed_orbit(self.rho))
        self._weyl_char_cache = {}

    # -- basic weight arithmetic ------------------------------------------

    def check_rank(self, weight):
        if len(weight) != self.rank:
            raise RankMismatchError(
                f"weight {weight} has length {len(weight)}, expected {self.rank}"
            )

    def simple_reflection(self, i, weight):
        c = weight[i]
        return tuple([a - c * b for a, b in zip(weight, self.cartan.entries[i])])

    def is_dominant(self, weight):
        return all(c >= 0 for c in weight)

    def scaled_root_coords(self, weight):
        """det(C) times the simple-root coordinates of a lattice vector (integers)."""
        return tuple(sum(map(mul, weight, column)) for column in self._adj_columns)

    def root_coords(self, weight):
        """Coordinates of a lattice vector in the simple-root basis."""
        return tuple(Fraction(x, self.det) for x in self.scaled_root_coords(weight))

    def scaled_height(self, weight):
        """det(C) times the height (sum of root coordinates); mu < lam raises it."""
        return sum(map(mul, weight, self._height_vector))

    def bilinear(self, x, y):
        """W-invariant symmetric form, (alpha, alpha) proportional to d, scaled to be
        the least positive multiple that is integral on the weight lattice."""
        return sum(map(mul, x, (sum(map(mul, row, y)) for row in self._form)))

    # -- derived structure ------------------------------------------------

    def _generate_positive_roots(self):
        roots = set().union(*map(self.weyl_orbit, self.cartan.entries))
        positive = [r for r in roots if all(c >= 0 for c in self.root_coords(r))]
        return tuple(sorted(positive))

    def _compute_w0_word(self):
        word = []
        v = tuple(-c for c in self.rho)
        while not self.is_dominant(v):
            i = next(j for j in range(self.rank) if v[j] < 0)
            v = self.simple_reflection(i, v)
            word.append(i)
        return tuple(word)

    # -- weight operations ------------------------------------------------

    def w0_action(self, weight):
        self.check_rank(weight)
        for i in self._w0_word:
            weight = self.simple_reflection(i, weight)
        return weight

    def dual_weight(self, nu):
        """-w0 . nu; an involution preserving dominance."""
        return tuple(-c for c in self.w0_action(nu))

    def dominance_leq(self, mu, lam):
        """True iff lam - mu is a nonnegative integral combination of simple roots."""
        self.check_rank(mu)
        self.check_rank(lam)
        diff = tuple(a - b for a, b in zip(lam, mu))
        return self.is_scaled_nonnegative(self.scaled_root_coords(diff))

    def is_scaled_nonnegative(self, scaled):
        """True iff the lattice vector with these scaled_root_coords is a
        nonnegative integral combination of simple roots."""
        det = self.det
        return all(n >= 0 and not n % det for n in scaled)

    def weyl_orbit(self, lam):
        return set(self.signed_orbit(lam))

    def signed_orbit(self, lam):
        """The W-orbit of lam as {w(lam): sgn(w)}; signs are exact for regular lam."""
        self.check_rank(lam)
        orbit = {lam: 1}
        frontier = [lam]
        while frontier:
            new = []
            for w in frontier:
                sign = -orbit[w]
                for i in range(self.rank):
                    image = self.simple_reflection(i, w)
                    if image not in orbit:
                        orbit[image] = sign
                        new.append(image)
            frontier = new
        return orbit

    def steinberg_weight(self, p, r):
        """(p^r - 1) rho, the highest weight of the Steinberg module St_r."""
        return tuple((p**r - 1) * c for c in self.rho)

    def restricted_weights(self, p, r):
        """All p^r-restricted weights in lexicographic order.

        LiecharError when there are more than MAX_WEYL_WEIGHTS of them.
        There are p^(r * rank) >= 2^(r * rank), so a long r is refused before
        p^r is computed.
        """
        if p <= 1 or r < 1:
            raise ValueError(f"need p >= 2 and r >= 1, got p={p}, r={r}")
        if (
            r * self.rank >= MAX_WEYL_WEIGHTS.bit_length()
            or (p**r) ** self.rank > MAX_WEYL_WEIGHTS
        ):
            raise LiecharError(
                f"the {p}^{r}-restricted weights of rank {self.rank} number "
                f"more than {MAX_WEYL_WEIGHTS}"
            )
        bound = p**r
        return [tuple(w) for w in itertools.product(range(bound), repeat=self.rank)]

    def dominant_weights_below(self, lam):
        """All dominant mu <= lam in lexicographic order (lam included)."""
        last = self.cartan.entries[-1]
        return sorted(
            tuple(m - c * a for m, a in zip(mu, last))
            for mu, k in self._dominant_strings(lam)
            for c in range(k)
        )

    def count_dominant_below(self, lam):
        """The number of dominant mu <= lam, without listing them."""
        return sum(k for _, k in self._dominant_strings(lam))

    def _dominant_strings(self, lam):
        """Pairs (mu, k), k >= 1, such that the dominant weights below lam are
        exactly the mu - c alpha_l, 0 <= c < k, alpha_l the last simple root.

        The box of root coordinates of lam - mu is scanned in all but its last
        coordinate c; mu - c alpha_l is dominant for c in an interval read off
        row l of the Cartan matrix (2 on its diagonal, <= 0 elsewhere).
        """
        self.check_rank(lam)
        if not self.is_dominant(lam):
            raise NonDominantError(f"weight {lam} is not dominant")
        *rows, last = self.cartan.entries
        bounds = [n // self.det for n in self.scaled_root_coords(lam)[:-1]]
        for coeffs in itertools.product(*(range(b + 1) for b in bounds)):
            top = [
                lam[i] - sum(map(mul, coeffs, (row[i] for row in rows)))
                for i in range(self.rank)
            ]
            if any(t < 0 for t, a in zip(top, last) if not a):
                continue
            low = max([0] + [-(t // -a) for t, a in zip(top, last) if a < 0])
            high = top[-1] // 2
            if low <= high:
                yield tuple(t - low * a for t, a in zip(top, last)), high - low + 1

    def weyl_dimension(self, lam):
        """Weyl dimension formula, as an exact integer."""
        self.check_rank(lam)
        if not self.is_dominant(lam):
            raise NonDominantError(f"weight {lam} is not dominant")
        lam_rho = tuple(c + 1 for c in lam)
        num = den = 1
        for root in self.positive_roots:
            num *= self.bilinear(lam_rho, root)
            den *= self.bilinear(self.rho, root)
        value, rest = divmod(num, den)
        if rest:
            raise LiecharError(f"Weyl dimension of {lam} is {num}/{den}")
        return value

    def __repr__(self):
        return f"RootSystem(rank={self.rank}, positive_roots={len(self.positive_roots)})"


def root_system_of(doc, rs=None):
    """The root system a data document names by its "type" or "cartan" key.

    With rs given, a document that names no root system is read over rs,
    and one that names a Cartan matrix other than rs.cartan raises
    DataValidationError.  Without rs, the document must name one.
    """
    if "type" in doc:
        cartan = CartanMatrix.builtin(doc["type"])
    elif "cartan" in doc:
        cartan = CartanMatrix.from_json_dict(doc["cartan"])
    elif rs is None:
        raise DataValidationError("document needs a 'type' or 'cartan' key")
    else:
        return rs
    if rs is None:
        return RootSystem(cartan)
    if cartan != rs.cartan:
        raise DataValidationError(
            f"document is for {cartan!r}, but the root system is {rs.cartan!r}"
        )
    return rs


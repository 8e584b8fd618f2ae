"""Root-system combinatorics in fundamental-weight coordinates.

Weights are plain tuples of integers: the coefficients of the fundamental
weights (omega_1, ..., omega_l).  A simple root alpha_i is represented by
row i of the Cartan matrix, since <alpha_i, alpha_j^vee> is exactly its
j-th fundamental coordinate.  All linear algebra is exact: one
fraction-free integer elimination per Cartan matrix gives det(C) and
det(C) * C^-1, and every per-call lattice operation after that runs on
plain integers.  The symmetrizer is read off that adjugate, and the
invariant form is integral too; Fraction remains only in root_coords, whose
signs pick the positive roots.  -w0 is read off the dominant chamber, and
every W-orbit comes from one routine, signed_orbit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .errors import (
    DataValidationError,
    LiecharError,
    NonDominantError,
    NotFiniteTypeError,
    RankMismatchError,
    strict_int,
    strict_int_tuple,
)

#: Largest set of weights built at once: the support of a Weyl character
#: (characters.weyl_character), the digit product bounding a non-restricted
#: simple character (DecompositionProvider.simple_character), the
#: restricted weights X_r, the weight grid of a CLI sweep, the pairs
#: X_r x X_r of a CLI sweep over them (cli._restricted_weights), or a W-orbit:
#: RootSystem refuses a Weyl group of larger order, since its Weyl
#: denominator is the signed orbit of rho, of |W| weights.
MAX_WEYL_WEIGHTS = 10**6

BUILTIN_CARTAN_MATRICES = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -1), (-3, 2)),
}


def _form_matrix(adj, symmetrizer):
    """(omega_i, omega_j) with (alpha_k, alpha_k) = 2 d_k, scaled to the least
    positive multiple that is integral.

    det(C) * (omega_i, omega_j) = adj_ij * d_j is an integer matrix, so the
    least integral multiple is that matrix over the gcd of its entries.
    """
    gram = [[a * d for a, d in zip(row, symmetrizer)] for row in adj]
    scale = math.gcd(*(x for row in gram for x in row))
    return tuple(tuple(x // scale for x in row) for row in gram)


def _positive_definite_adjugate(rows):
    """det(C) and the integer matrix det(C) * C^-1, by one fraction-free
    (Bareiss) Gauss-Jordan pass over [C | I] without row exchanges.

    The k-th pivot is the k-th leading principal minor of C.  For a positive
    diagonal D, minor_k(C * D) = minor_k(C) * d_1 ... d_k, so when C is
    symmetrizable, C * D is positive definite iff every pivot is positive
    (Sylvester); NotFiniteTypeError at the first that is not.  A C that is
    not symmetrizable is refused right after, by _symmetrizer.  Every
    division is exact.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    previous = 1
    for k in range(n):
        pivot_row = aug[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise NotFiniteTypeError(
                f"leading principal minor {k + 1} is {pivot}, so no symmetrization "
                "of the matrix is positive definite (not finite type)"
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


def _symmetrizer(rows, adj):
    """Positive integers d with d_j * a_ij = d_i * a_ji, read off adj, a
    nonzero multiple of C^-1.

    C * diag(d) is symmetric iff diag(d)^-1 * adj is, so d_i / d_k is
    adj_ik / adj_ki.  For k take the first nonzero column of row i: every
    entry of the inverse of an indecomposable finite-type Cartan matrix is
    positive (Lusztig-Tits), so k is the first node of i's component, where
    d is 1.  The ratios are scaled by the lcm of their denominators, one
    scale for all components.  NotFiniteTypeError when a ratio is not
    positive or d does not symmetrize C.
    """
    ratios = []
    for i, row in enumerate(adj):
        k = next(k for k, x in enumerate(row) if x)
        num, den = row[k], adj[k][i]
        if num * den <= 0:
            raise NotFiniteTypeError(f"matrix is not symmetrizable at entry ({i},{k})")
        g = math.gcd(num, den)
        ratios.append((abs(num) // g, abs(den) // g))
    scale = math.lcm(*(den for _, den in ratios))
    d = tuple(num * scale // den for num, den in ratios)
    for i, j in itertools.product(range(len(rows)), repeat=2):
        if d[j] * rows[i][j] != d[i] * rows[j][i]:
            raise NotFiniteTypeError(f"matrix is not symmetrizable at entry ({i},{j})")
    return d


class CartanMatrix:
    """A finite-type Cartan matrix; entry (i, j) is <alpha_i, alpha_j^vee>.

    Validated at construction: square, 2 on the diagonal, nonpositive off
    the diagonal, zero-symmetric, symmetrizable with positive-definite
    symmetrization.  The elimination that checks the last also gives det
    and adjugate, the integer matrix det * C^-1, and the symmetrizer is read
    off the adjugate.
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
        self.det, self.adjugate = _positive_definite_adjugate(rows)
        self.symmetrizer = _symmetrizer(rows, self.adjugate)

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
        """Build from {"type": name} or {"rank": l, "matrix": [[...]]}, not
        both; the matrix must be a list of rows, and rank, if given, an
        integer equal to its length (NotFiniteTypeError or
        DataValidationError otherwise)."""
        if not isinstance(doc, dict):
            raise NotFiniteTypeError(f"Cartan document must be an object, got {doc!r}")
        if "type" in doc and "matrix" in doc:
            raise NotFiniteTypeError("Cartan document has both a 'type' and a 'matrix'")
        if "type" in doc:
            return cls.builtin(doc["type"])
        matrix = doc.get("matrix")
        if not isinstance(matrix, list):
            raise NotFiniteTypeError(
                f"Cartan document needs a 'type' or a 'matrix' list, got {doc!r}"
            )
        if "rank" in doc and strict_int(doc["rank"], "rank") != len(matrix):
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
    {w rho: sgn(w)}) and -w0 as a coordinate permutation.  LiecharError, before
    the Weyl denominator is built, when |W| is more than MAX_WEYL_WEIGHTS.
    """

    def __init__(self, cartan):
        if not isinstance(cartan, CartanMatrix):
            cartan = CartanMatrix(cartan)
        self.cartan = cartan
        self.rank = cartan.rank
        self.det, adj = cartan.det, cartan.adjugate
        self._adj_columns = tuple(zip(*adj))
        self._height_vector = tuple(map(sum, adj))
        self._form = _form_matrix(adj, cartan.symmetrizer)
        self.rho = (1,) * self.rank
        self.positive_roots = self._generate_positive_roots()
        # |W| is the product of the degrees m_j + 1, the exponent m_j being the
        # number of heights that at least j positive roots have (Kostant's
        # dual partition), so the Weyl denominator's size is known unbuilt.
        heights = Counter(map(self.scaled_height, self.positive_roots)).values()
        order = math.prod(sum(n > j for n in heights) + 1 for j in range(self.rank))
        if order > MAX_WEYL_WEIGHTS:
            raise LiecharError(f"Weyl group order {order} exceeds {MAX_WEYL_WEIGHTS}")
        self._dual_index = self._compute_dual_index()
        self.weyl_denominator = MappingProxyType(self.signed_orbit(self.rho))
        self._weyl_char_cache = {}
        self._nu_cache = {}

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
        roots = set().union(*map(self.signed_orbit, self.cartan.entries))
        positive = [r for r in roots if all(c >= 0 for c in self.root_coords(r))]
        return tuple(sorted(positive))

    def _compute_dual_index(self):
        """The coordinate permutation k with -w0(nu) = (nu[k_0], ..., nu[k_l-1]).

        -w0 permutes the fundamental weights, and -w0(omega_i) is the one
        dominant weight in the W-orbit of -omega_i.  Reflecting -omega_i at a
        negative coordinate until none is left reaches it, omega_sigma(i).
        """
        index = [None] * self.rank
        for i in range(self.rank):
            v = tuple(-int(i == j) for j in range(self.rank))
            while not self.is_dominant(v):
                v = self.simple_reflection(next(j for j, c in enumerate(v) if c < 0), v)
            index[v.index(1)] = i
        return tuple(index)

    # -- weight operations ------------------------------------------------

    def dual_weight(self, nu):
        """-w0 . nu; an involution preserving dominance."""
        self.check_rank(nu)
        return tuple(nu[k] for k in self._dual_index)

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
    """The root system a data document names by its "type" or "cartan" key;
    a document with both keys raises DataValidationError.

    With rs given, a document that names no root system is read over rs,
    and one that names a Cartan matrix other than rs.cartan raises
    DataValidationError.  Without rs, the document must name one.
    """
    if "type" in doc and "cartan" in doc:
        raise DataValidationError("document has both a 'type' and a 'cartan' key")
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


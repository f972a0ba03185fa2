"""Cai's finitely generated cochain model of the real moment-angle complex.

Generators u_i (degree 1) and t_i (degree 0) subject to the Stanley-Reisner
relations in the u's and to

    u_i t_i = u_i,   t_i u_i = 0,   u_i t_j = t_j u_i (i != j),
    t_i t_i = t_i,   t_i t_j = t_j t_i,   u_i u_i = 0,   u_i u_j = -u_j u_i,

with d(t_i) = u_i and d(u_i) = 0.  Every word rewrites to the normal form
u_S t_T with S a face of K and S, T disjoint; only u-shuffles carry signs.

The doubling map sends the moment-angle model of K into this model over
K(2,...,2): u_i goes to u_{i''} t_{i'} and v_i to u_{i'} u_{i''}, where i'
and i'' are the two copies of vertex i.  It is a degree-preserving map of
differential graded algebras inducing an isomorphism on cohomology.

``RealCochain`` inherits its linear arithmetic (sums, scaling, degree,
equality, printing) from ``koszul.Cochain``, the core both cochain models
share, with each term u_S t_T keyed by the vertex masks (S, T), and defines
only the model's product and ``differential_terms``, the signed terms of d
of one monomial, which ``differential`` reads.

The ranks are computed on bases of the same mask pairs (S, T): degree p
takes S from the face masks with p vertices and T from the subsets of the
other vertices, and the columns of its differential are written from the
bits with the sign rule of ``differential_terms``.  A column of (S, T)
visits only the vertices i of T with S + i a face, from a mask per face
read off the level above (``_addable_masks``), so each row it looks up is
there: on the P4 nerve the cleared chain makes 7,783 lookups where trying
every vertex of T made 13,597, 5,814 of them for no row.  Only the rank
of each differential is read, so ``rational_linalg.rank_of_columns``
eliminates it once on its shorter side, unlogged and in place, and keeps
only its pivots.  The differentials are read lowest degree first, and
the pairs whose rows the pivots of one differential cover get no column
in the next (``rational_linalg.cleared_ranks``): d d = 0, so that keeps
its rank.  On the P4 nerve the middle differential keeps 1,793 of its
2,304 columns (1,732 of them nonzero), and the top one 972 of its 2,688.
As the independent oracle for Hochster's sum, this build shares only the
face masks and the elimination kernel with it.
"""

import functools
import itertools

from .complexes import _tuple_of
from .errors import CapacityError, InputError
from .koszul import Cochain, normal_part, shuffle_sign
from .multiwedge import j_construction, wedge_vertex_map
from .rational_linalg import Rational, cleared_ranks, cohomology_ranks, rank_of_columns

# vertices of a complex whose full real model is ranked: the bases hold one
# pair (S, T) per face S and subset T of the other vertices, up to 3^m in all;
# one fresh process each (2-vCPU Xeon, Python 3.11.7, Fraction backend, medians
# of 4), the full simplex at m = 9 (19,683 pairs) took 0.028 s at 21 MB, and at
# m = 10, with this cap lifted, the cross-polytope (32,768 pairs) took 0.050 s
# at 25 MB
REAL_RANKS_CAPACITY = 9


class RealCochain(Cochain):
    """Rational linear combination of real-model monomials u_S t_T over a fixed complex."""

    __slots__ = ()

    LETTER = "t"
    LETTER_DEGREE = 0

    @classmethod
    def monomial(cls, complex, u_vertices, t_vertices, coeff=1):
        u = normal_part(u_vertices, complex.m, "u-part")
        t = normal_part(t_vertices, complex.m, "t-part")
        if u & t:
            raise InputError(f"u-part {_tuple_of(u)} and t-part {_tuple_of(t)} overlap")
        if not complex.is_face_mask(u):
            raise InputError(f"u-part {_tuple_of(u)} is not a face")
        return cls(complex, {(u, t): Rational(coeff)})

    def __mul__(self, other):
        """Normal-form product.

        (u_S t_T)(u_S' t_T') is zero when T meets S' (t_i u_i = 0), when S
        meets S' (u_i u_i = 0), or when S u S' is not a face; otherwise the
        u-parts shuffle together and any t over a u-vertex is absorbed
        (u_i t_i = u_i).
        """
        self._check_ambient(other)
        K = self.complex
        out = {}
        for (s1, t1), c1 in self.terms.items():
            for (s2, t2), c2 in other.terms.items():
                union = s1 | s2
                if (t1 | s1) & s2 or not K.is_face_mask(union):
                    continue
                key = (union, (t1 | t2) & ~union)
                out[key] = out.get(key, 0) + c1 * c2 * shuffle_sign(s1, s2)
        return RealCochain(K, out)

    @staticmethod
    def differential_terms(K, s, t):
        """Terms of d(u_S t_T): moving t_i into the u-part, at 0-based position
        k of the new u-block, contributes (-1)^k, where S + i is a face."""
        rest = t
        while rest:
            low = rest & -rest
            rest ^= low
            if K.is_face_mask(s | low):
                yield (s | low, t ^ low), -1 if (s & (low - 1)).bit_count() & 1 else 1

    def differential(self):
        """Derivation with d(t_i) = u_i and d(u_i) = 0."""
        return self._differential()


def _lex_subsets(bits):
    """Every subset of the single-bit masks ``bits`` (ascending), in lex order of tuples."""
    subsets = [0]
    for bit in reversed(bits):
        subsets = [0] + [bit | T for T in subsets] + subsets[1:]
    return subsets


def _degree_basis(K, p):
    """The monomials u_S t_T of degree p as mask pairs (S, T), sorted by (u-part, t-part).

    S runs over the faces with p vertices and T over the subsets of the
    vertices outside S, both in lex order of their tuples.
    """
    bits = [1 << v for v in range(K.m)]
    return [(S, T) for S in K.face_masks(p) for T in _lex_subsets([b for b in bits if not b & S])]


def _addable_masks(faces):
    """Per face S of the level below the face level ``faces``, the vertices i with S + i a face.

    The mask of S holds the vertices i outside S with S + i in ``faces``.
    It is read off ``faces`` with no face test: each face S' adds each of
    its vertices v to the mask of S' - v.  A face that no face of
    ``faces`` contains gets no entry.
    """
    addable = {}
    for face in faces:
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            addable[face ^ low] = addable.get(face ^ low, 0) | low
    return addable


def _differential_columns(K, lower, upper):
    """Columns of d from the mask basis ``lower`` of one degree to ``upper``, the next.

    Column (S, T) maps, for each vertex i of T with S + i a face, the row of
    (S + i, T - i) to (-1)^k, k the number of vertices of S below i (the
    signs of ``RealCochain.differential_terms``).  Only the vertices of T
    in S's mask from ``_addable_masks`` are looked up, and each finds its
    row in ``upper``.
    """
    m = K.m
    index = {S << m | T: r for r, (S, T) in enumerate(upper)}
    addable = _addable_masks(K.face_masks(upper[0][0].bit_count()) if upper else ())
    columns = []
    for S, T in lower:
        column = {}
        rest = T & addable.get(S, 0)
        while rest:
            low = rest & -rest
            rest ^= low
            column[index[(S | low) << m | T ^ low]] = -1 if (S & (low - 1)).bit_count() & 1 else 1
        columns.append(column)
    return columns


def _differential_pivots(K, lower, upper, covered):
    """The positions in ``upper`` covered by the pivots of d from ``lower``.

    The pairs at the positions ``covered`` of ``lower``, those the
    differential into ``lower`` covered, get no column; that keeps the
    rank, which is the number of positions returned.
    """
    if covered:
        lower = [pair for j, pair in enumerate(lower) if j not in covered]
    return {r for r, _ in rank_of_columns(len(upper), _differential_columns(K, lower, upper))}


def real_cohomology_ranks(K):
    """Cohomology ranks of the model by degree, 0 .. dim K + 1.

    Must match the Hochster-type sum: rank H^p = sum over J of reduced
    H^{p-1}(K_J) with the {emptyset} convention.  Degrees are read up to the
    first empty basis, the degree one above the largest face size, and each
    differential is cleared by the one below it (``_differential_pivots``).
    """
    if K.m > REAL_RANKS_CAPACITY:
        raise CapacityError(
            "real-ranks",
            f"full model on m={K.m} vertices exceeds capacity m <= {REAL_RANKS_CAPACITY}",
        )
    bases = list(itertools.takewhile(bool, (_degree_basis(K, p) for p in itertools.count())))
    dranks = cleared_ranks(bases, functools.partial(_differential_pivots, K))
    return cohomology_ranks(map(len, bases), dranks)


# -- doubling bridge -------------------------------------------------------------


def doubling_complex(K):
    return j_construction(K, (2,) * K.m)


def doubling_cochain(koszul_cochain, doubled=None):
    """Image of a moment-angle model cochain in the real model of K(2,...,2).

    Computed as the product of generator images, so all signs come from the
    real model's own multiplication.
    """
    K = koszul_cochain.complex
    if doubled is None:
        doubled = doubling_complex(K)
    copies = wedge_vertex_map(K, (2,) * K.m)
    out = RealCochain.zero(doubled)
    for (u, v), coeff in koszul_cochain.terms.items():
        word = RealCochain.unit(doubled).scaled(coeff)
        for i in _tuple_of(u):
            first, second = copies[i]
            word = word * RealCochain.monomial(doubled, (second,), (first,))
        for i in _tuple_of(v):
            first, second = copies[i]
            word = word * RealCochain.monomial(doubled, (first, second), ())
        out = out + word
    return out

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
"""

import itertools
from dataclasses import dataclass

from .errors import AmbientMismatchError, CapacityError, InputError
from .koszul import shuffle_sign
from .multiwedge import j_construction, wedge_vertex_map
from .rational_linalg import Rational, SparseMatrix

_ONE = Rational(1)

REAL_RANKS_CAPACITY = 9


@dataclass(frozen=True, order=True)
class RealMonomial:
    """Normal-form word u_{S} t_{T}: S a face, S and T disjoint, both ascending."""

    u_vertices: tuple
    t_vertices: tuple

    @property
    def degree(self):
        return len(self.u_vertices)

    def __str__(self):
        us = "".join(f"u{v}" for v in self.u_vertices)
        ts = "".join(f"t{v}" for v in self.t_vertices)
        return (us + ts) or "1"


class RealCochain:
    __slots__ = ("complex", "terms")

    def __init__(self, complex, terms=None):
        self.complex = complex
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Rational(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, complex, u_vertices, t_vertices, coeff=1):
        u = tuple(sorted(u_vertices))
        t = tuple(sorted(t_vertices))
        if set(u) & set(t):
            raise InputError(f"u-part {u} and t-part {t} overlap")
        if not complex.is_face(u):
            raise InputError(f"u-part {u} is not a face")
        return cls(complex, {RealMonomial(u, t): Rational(coeff)})

    @classmethod
    def unit(cls, complex):
        return cls(complex, {RealMonomial((), ()): _ONE})

    @classmethod
    def zero(cls, complex):
        return cls(complex)

    def is_zero(self):
        return not self.terms

    def _check_ambient(self, other):
        if self.complex != other.complex:
            raise AmbientMismatchError("cochains live over different complexes")

    def __add__(self, other):
        self._check_ambient(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return RealCochain(self.complex, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, factor):
        factor = Rational(factor)
        if not factor:
            return RealCochain(self.complex)
        return RealCochain(self.complex, {m: c * factor for m, c in self.terms.items()})

    def degree(self):
        degs = {m.degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"cochain is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

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
        for m1, c1 in self.terms.items():
            s1 = set(m1.u_vertices)
            t1 = set(m1.t_vertices)
            for m2, c2 in other.terms.items():
                s2 = set(m2.u_vertices)
                if t1 & s2 or s1 & s2:
                    continue
                union = tuple(sorted(s1 | s2))
                if not K.is_face(union):
                    continue
                sign = shuffle_sign(m1.u_vertices, m2.u_vertices)
                tpart = tuple(sorted((t1 | set(m2.t_vertices)) - set(union)))
                mono = RealMonomial(union, tpart)
                c = c1 * c2 * sign
                s = out.get(mono, 0) + c
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return RealCochain(K, out)

    def differential(self):
        """Derivation with d(t_i) = u_i: each t-vertex moves into the u-part.

        Inserting u_i at 0-based position k of the new u-block contributes
        (-1)^k; terms whose new u-part is not a face are dropped.
        """
        K = self.complex
        out = {}
        for mono, coeff in self.terms.items():
            u, t = mono.u_vertices, mono.t_vertices
            for i in t:
                new_u = tuple(sorted(u + (i,)))
                if not K.is_face(new_u):
                    continue
                pos = new_u.index(i)
                new_mono = RealMonomial(new_u, tuple(x for x in t if x != i))
                c = -coeff if pos & 1 else coeff
                s = out.get(new_mono, 0) + c
                if s:
                    out[new_mono] = s
                else:
                    out.pop(new_mono, None)
        return RealCochain(K, out)

    def __eq__(self, other):
        if not isinstance(other, RealCochain):
            return NotImplemented
        return self.complex == other.complex and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            parts.append(f"{c}*{mono}" if c != 1 else str(mono))
        return " + ".join(parts)


def _degree_basis(K, p):
    """All normal-form monomials of degree p, sorted."""
    monos = []
    rest = range(1, K.m + 1)
    for u in K.faces(p):
        others = [v for v in rest if v not in u]
        for r in range(len(others) + 1):
            for t in itertools.combinations(others, r):
                monos.append(RealMonomial(u, t))
    monos.sort()
    return monos


def real_cohomology_ranks(K, capacity=REAL_RANKS_CAPACITY):
    """Cohomology ranks of the model by degree, 0 .. dim K + 1.

    Must match the Hochster-type sum: rank H^p = sum over J of reduced
    H^{p-1}(K_J) with the {emptyset} convention.
    """
    if K.m > capacity:
        raise CapacityError(
            "real-ranks",
            f"full model on m={K.m} vertices exceeds capacity m <= {capacity}",
        )
    top = K.dim + 1
    bases = [_degree_basis(K, p) for p in range(top + 2)]
    ranks_d = []
    for p in range(top + 1):
        index = {mono: i for i, mono in enumerate(bases[p + 1])}
        entries = {}
        for col, mono in enumerate(bases[p]):
            image = RealCochain(K, {mono: _ONE}).differential()
            for m, c in image.terms.items():
                entries[(index[m], col)] = c
        ranks_d.append(SparseMatrix(len(bases[p + 1]), len(bases[p]), entries).rank())
    ranks_d.append(0)
    out = []
    prev = 0
    for p in range(top + 1):
        out.append(len(bases[p]) - ranks_d[p] - prev)
        prev = ranks_d[p]
    return tuple(out)


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
    for mono, coeff in koszul_cochain.terms.items():
        word = RealCochain.unit(doubled).scaled(coeff)
        for i in mono.u_vertices:
            first, second = copies[i]
            word = word * RealCochain.monomial(doubled, (second,), (first,))
        for i in mono.v_vertices:
            first, second = copies[i]
            word = word * RealCochain.monomial(doubled, (first, second), ())
        out = out + word
    return out

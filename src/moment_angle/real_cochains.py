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
share, and defines only the model's product and ``differential_terms``,
the signed terms of d of one monomial, which both ``differential`` and
``koszul.differential_matrix`` read.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .errors import CapacityError, InputError
from .koszul import Cochain, differential_matrix, shuffle_sign
from .multiwedge import j_construction, wedge_vertex_map
from .rational_linalg import Rational, cohomology_ranks

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


class RealCochain(Cochain):
    """Rational linear combination of real-model monomials over a fixed complex."""

    __slots__ = ()

    Monomial = RealMonomial

    @classmethod
    def monomial(cls, complex, u_vertices, t_vertices, coeff=1):
        u = tuple(sorted(u_vertices))
        t = tuple(sorted(t_vertices))
        if set(u) & set(t):
            raise InputError(f"u-part {u} and t-part {t} overlap")
        if not complex.is_face(u):
            raise InputError(f"u-part {u} is not a face")
        return cls(complex, {RealMonomial(u, t): Rational(coeff)})

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
                out[mono] = out.get(mono, 0) + c1 * c2 * sign
        return RealCochain(K, out)

    @staticmethod
    def differential_terms(K, mono):
        """Terms of d(u_S t_T): moving t_i into the u-part, at 0-based position
        k of the new u-block, contributes (-1)^k, where S + i is a face."""
        u, t = mono.u_vertices, mono.t_vertices
        for j, i in enumerate(t):
            pos = bisect_left(u, i)
            new_u = u[:pos] + (i,) + u[pos:]
            if K.is_face(new_u):
                yield RealMonomial(new_u, t[:j] + t[j + 1 :]), -1 if pos & 1 else 1

    def differential(self):
        """Derivation with d(t_i) = u_i and d(u_i) = 0."""
        return self._differential()


def _degree_basis(K, p):
    """All normal-form monomials of degree p, sorted by (u-part, t-part)."""
    monos = []
    rest = range(1, K.m + 1)
    for u in K.faces(p):
        others = [v for v in rest if v not in u]
        for r in range(len(others) + 1):
            for t in itertools.combinations(others, r):
                monos.append(RealMonomial(u, t))
    monos.sort(key=lambda mono: (mono.u_vertices, mono.t_vertices))
    return monos


def real_cohomology_ranks(K):
    """Cohomology ranks of the model by degree, 0 .. dim K + 1.

    Must match the Hochster-type sum: rank H^p = sum over J of reduced
    H^{p-1}(K_J) with the {emptyset} convention.  Degrees are read up to the
    first empty basis, the degree one above the largest face size.
    """
    if K.m > REAL_RANKS_CAPACITY:
        raise CapacityError(
            "real-ranks",
            f"full model on m={K.m} vertices exceeds capacity m <= {REAL_RANKS_CAPACITY}",
        )
    bases = list(itertools.takewhile(bool, (_degree_basis(K, p) for p in itertools.count())))
    dranks = [
        differential_matrix(RealCochain, K, lower, {m: i for i, m in enumerate(upper)}).rank()
        for lower, upper in zip(bases, bases[1:])
    ]
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

"""The finitely generated cochain model of the moment-angle complex.

For a complex K on m vertices this is the quotient of the Koszul algebra
Lambda[u_1..u_m] (x) k[K] by the relations v_i^2 = u_i v_i = 0, with
du_i = v_i and dv_i = 0.  A monomial basis is given by u_S v_T with S, T
disjoint and T a face of K; its cohomology is the cohomology of Z_K, and the
differential preserves the multidegree S u T, so everything decomposes into
tiny components indexed by (vertex subset, total degree).  Per-component
bases, coboundary matrices, and deterministic class coordinates live in
``ComponentBasis``.

Normal form and signs: u-variables first in ascending order, then
v-variables ascending.  v's are even (degree 2) and contribute no signs;
u's are odd, so merging two u-blocks contributes the parity of the shuffle,
and dropping u_i from position k (0-based) of a u-block contributes (-1)^k.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import AmbientMismatchError, InputError, NotACocycleError
from .rational_linalg import Rational, SparseMatrix, nullspace_basis, solve_linear

_ONE = Rational(1)


def shuffle_sign(a, b):
    """Sign of the shuffle merging two disjoint ascending tuples of odd generators."""
    inversions = 0
    for x in a:
        for y in b:
            if y < x:
                inversions += 1
    return -1 if inversions & 1 else 1


@dataclass(frozen=True, order=True)
class KoszulMonomial:
    """Normal-form monomial u_{S} v_{T} with S, T disjoint ascending tuples."""

    u_vertices: tuple
    v_vertices: tuple

    @property
    def degree(self):
        return len(self.u_vertices) + 2 * len(self.v_vertices)

    @property
    def multidegree(self):
        return tuple(sorted(self.u_vertices + self.v_vertices))

    @property
    def bidegree(self):
        return (-len(self.u_vertices), 2 * len(self.u_vertices) + 2 * len(self.v_vertices))

    def __str__(self):
        us = "".join(f"u{v}" for v in self.u_vertices)
        vs = "".join(f"v{v}" for v in self.v_vertices)
        return (us + vs) or "1"


class KoszulCochain:
    """Rational linear combination of Koszul monomials over a fixed complex."""

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
    def monomial(cls, complex, u_vertices, v_vertices, coeff=1):
        u = tuple(sorted(u_vertices))
        v = tuple(sorted(v_vertices))
        if set(u) & set(v):
            raise InputError(f"u-part {u} and v-part {v} overlap")
        if not complex.is_face(v):
            raise InputError(f"v-part {v} is not a face")
        return cls(complex, {KoszulMonomial(u, v): Rational(coeff)})

    @classmethod
    def zero(cls, complex):
        return cls(complex)

    @classmethod
    def unit(cls, complex):
        return cls(complex, {KoszulMonomial((), ()): _ONE})

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
        return KoszulCochain(self.complex, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        factor = Rational(factor)
        if not factor:
            return KoszulCochain(self.complex)
        return KoszulCochain(
            self.complex, {m: c * factor for m, c in self.terms.items()}
        )

    def degree(self):
        """Common total degree of all terms; None for the zero cochain."""
        degs = {m.degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"cochain is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def multidegree(self):
        mds = {m.multidegree for m in self.terms}
        if not mds:
            return None
        if len(mds) > 1:
            raise InputError("cochain is not multihomogeneous")
        return mds.pop()

    def bar(self):
        """(-1)^degree times self (sign convention for defining systems)."""
        d = self.degree()
        if d is None:
            return self
        return self.scaled(-1) if d & 1 else self

    def differential(self):
        """d(u_S v_T) = sum over i in S of +-   u_{S-i} v_{T+i}, faces only."""
        out = {}
        K = self.complex
        for mono, coeff in self.terms.items():
            u, v = mono.u_vertices, mono.v_vertices
            for pos, i in enumerate(u):
                new_v = tuple(sorted(v + (i,)))
                if not K.is_face(new_v):
                    continue
                new_mono = KoszulMonomial(u[:pos] + u[pos + 1 :], new_v)
                c = -coeff if pos & 1 else coeff
                s = out.get(new_mono, 0) + c
                if s:
                    out[new_mono] = s
                else:
                    out.pop(new_mono, None)
        return KoszulCochain(K, out)

    def __mul__(self, other):
        """Product: zero on overlapping multidegrees or non-face v-parts,
        otherwise the merged monomial with the u-shuffle sign."""
        self._check_ambient(other)
        K = self.complex
        out = {}
        for m1, c1 in self.terms.items():
            md1 = set(m1.multidegree)
            for m2, c2 in other.terms.items():
                if md1 & set(m2.multidegree):
                    continue
                new_v = tuple(sorted(m1.v_vertices + m2.v_vertices))
                if not K.is_face(new_v):
                    continue
                sign = shuffle_sign(m1.u_vertices, m2.u_vertices)
                new_mono = KoszulMonomial(
                    tuple(sorted(m1.u_vertices + m2.u_vertices)), new_v
                )
                c = c1 * c2 * sign
                s = out.get(new_mono, 0) + c
                if s:
                    out[new_mono] = s
                else:
                    out.pop(new_mono, None)
        return KoszulCochain(K, out)

    def __eq__(self, other):
        if not isinstance(other, KoszulCochain):
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


# -- multidegree components -----------------------------------------------------


class ComponentBasis:
    """Basis and differential data of one (multidegree, total degree) component.

    Monomials are all u_S v_T with S u T = J, T a face, of the given total
    degree, sorted by u-part; since |S| + 2|T| is the degree and S u T = J,
    they are the faces T of K inside J with |T| = degree - |J|.
    """

    __slots__ = (
        "complex",
        "multidegree",
        "total_degree",
        "monomials",
        "index",
        "_cache",
    )

    def __init__(self, complex, multidegree, total_degree):
        self.complex = complex
        self.multidegree = multidegree
        self.total_degree = total_degree
        J = set(multidegree)
        t_size = total_degree - len(multidegree)
        monos = []
        if 0 <= t_size <= len(multidegree):
            for tau in complex.faces(t_size):
                if set(tau) <= J:
                    sigma = tuple(sorted(J - set(tau)))
                    monos.append(KoszulMonomial(sigma, tau))
        monos.sort()
        self.monomials = tuple(monos)
        self.index = {mono: i for i, mono in enumerate(monos)}
        self._cache = {}

    def __len__(self):
        return len(self.monomials)

    def _neighbor(self, offset):
        return component_basis(self.complex, self.multidegree, self.total_degree + offset)

    def matrix_from_below(self):
        """Differential (degree-1 component) -> (this component), target rows."""
        if "from_below" not in self._cache:
            below = self._neighbor(-1)
            entries = {}
            for col, mono in enumerate(below.monomials):
                image = KoszulCochain(self.complex, {mono: _ONE}).differential()
                for m, c in image.terms.items():
                    entries[(self.index[m], col)] = c
            self._cache["from_below"] = SparseMatrix(len(self), len(below), entries)
        return self._cache["from_below"]

    def matrix_to_above(self):
        if "to_above" not in self._cache:
            above = self._neighbor(+1)
            entries = {}
            for col, mono in enumerate(self.monomials):
                image = KoszulCochain(self.complex, {mono: _ONE}).differential()
                for m, c in image.terms.items():
                    entries[(above.index[m], col)] = c
            self._cache["to_above"] = SparseMatrix(len(above), len(self), entries)
        return self._cache["to_above"]

    def cocycle_basis(self):
        if "cocycles" not in self._cache:
            self._cache["cocycles"] = nullspace_basis(self.matrix_to_above())
        return self._cache["cocycles"]

    def cohomology_dimension(self):
        if "hdim" not in self._cache:
            self._cache["hdim"] = (
                len(self) - self.matrix_to_above().rank() - self.matrix_from_below().rank()
            )
        return self._cache["hdim"]

    def cohomology_basis(self):
        """Deterministic cocycle representatives spanning cohomology.

        Canonical cocycle basis vectors are kept greedily, in their canonical
        order, when independent of the coboundary space and of the vectors
        kept before them: the cocycle columns that are pivots of
        [matrix_from_below | cocycle_basis].
        """
        if "hbasis" not in self._cache:
            below = self.matrix_from_below()
            cocycles = self.cocycle_basis()
            pivots = below.with_columns(cocycles).pivot_columns()
            self._cache["hbasis"] = tuple(
                cocycles[c - below.ncols] for c in pivots if c >= below.ncols
            )
        return self._cache["hbasis"]

    def coordinates(self, cochain):
        """Coefficient vector of a cochain that lies in this component."""
        vec = [Rational(0)] * len(self)
        for mono, c in cochain.terms.items():
            i = self.index.get(mono)
            if i is None:
                raise InputError(f"monomial {mono} outside component {self.key()}")
            vec[i] = c
        return tuple(vec)

    def cochain_from_coordinates(self, coords):
        return KoszulCochain(
            self.complex,
            {mono: c for mono, c in zip(self.monomials, coords)},
        )

    def primitive(self, cochain):
        """The deterministic c with dc = cochain (free variables zero), or None.

        c lives in the component one degree below; None means the cochain is
        not a coboundary.
        """
        sol = solve_linear(self.matrix_from_below(), self.coordinates(cochain))
        if sol is None:
            return None
        return self._neighbor(-1).cochain_from_coordinates(sol.vector)

    def class_vector(self, cochain):
        """Coordinates of [cochain] in the cohomology basis (zero iff coboundary)."""
        if not cochain.differential().is_zero():
            raise NotACocycleError(f"d({cochain!r}) != 0")
        below = self.matrix_from_below()
        if "classes" not in self._cache:  # [coboundaries | cohomology basis]
            self._cache["classes"] = below.with_columns(self.cohomology_basis())
        sol = solve_linear(self._cache["classes"], self.coordinates(cochain))
        if sol is None:  # cannot happen for a cocycle of this component
            raise NotACocycleError("cocycle not in span of coboundaries + cohomology basis")
        return sol.vector[below.ncols :]

    def key(self):
        return (self.multidegree, self.total_degree)


@lru_cache(maxsize=None)
def _component_cached(complex, multidegree, total_degree):
    return ComponentBasis(complex, multidegree, total_degree)


def component_basis(K, J, total_degree):
    """Memoized component for multidegree J (any iterable of vertices)."""
    J = tuple(sorted(set(J)))
    for v in J:
        if v < 1 or v > K.m:
            raise InputError(f"vertex {v} outside 1..{K.m}")
    return _component_cached(K, J, total_degree)


def component_of(cochain):
    """The component a homogeneous cochain lives in."""
    md = cochain.multidegree()
    deg = cochain.degree()
    if md is None:
        raise InputError("zero cochain has no component")
    return component_basis(cochain.complex, md, deg)


def cohomology_class(cochain):
    """Class coordinates of a homogeneous cocycle in its component's basis."""
    return component_of(cochain).class_vector(cochain)


def koszul_bigraded_ranks(K):
    """Cohomology ranks of the model by bidegree (i, j): the Hochster cross-oracle."""
    import itertools

    out = {}
    for size in range(K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for t in range(size, 2 * size + 1):
                dim = component_basis(K, J, t).cohomology_dimension()
                if dim:
                    key = (2 * size - t, size)
                    out[key] = out.get(key, 0) + dim
    return out

"""The finitely generated cochain model of the moment-angle complex.

For a complex K on m vertices this is the quotient of the Koszul algebra
Lambda[u_1..u_m] (x) k[K] by the relations v_i^2 = u_i v_i = 0, with
du_i = v_i and dv_i = 0.  A monomial basis is given by u_S v_T with S, T
disjoint and T a face of K; its cohomology is the cohomology of Z_K, and the
differential preserves the multidegree S u T, so everything decomposes into
tiny components indexed by (vertex subset, total degree).  Per-component
bases, coboundary matrices, and deterministic class coordinates live in
``ComponentBasis``.  ``Cochain`` is shared with Cai's real model in
``real_cochains``: in both models a term u_S x_T is keyed by the pair of
vertex masks (S, T), vertex v at bit v - 1, and ``Cochain`` sums a model's
differential from the signs of that model's one static ``differential_terms``.

By Hochster's isomorphism the component (J, t) is a sign-twisted copy of
the cochains of the induced subcomplex K_J: its basis is the level of K_J's
faces T with t - |J| vertices, held as bitmasks in reverse lex order of T
(which is the order of the monomials u_{J-T} v_T by u-part).  The levels of
each K_J are kept in K's own face-level store, and only the levels a
component or its two neighbours read are built, each from its nearer end
(``SimplicialComplex.face_masks``): a level of more than half of J is read
off its complements in J, so the top value component of a family product
reads its few upper levels without growing the large middle ones; a lower
level grows bottom-up through the levels below it.  A component's matrix
is written from the masks alone: the entry at (row of T + i, column of T)
is (-1)^k, k the number of vertices of J - T below i, wherever T + i is a
face.

Classes are read on the core of J.  Stripping the dominated vertices R of
K_J (``SimplicialComplex.strong_core``, as ``hochster.multigraded_betti``
does, kept per mask by the complex) leaves a full subcomplex onto which
K_J strong-collapses, and the contraction by d/du_v for each v in R, the
restriction to it, maps the component (J, t) to (J - R, t - |R|)
isomorphically on cohomology.  The canonical cocycles stay J's, and a
cocycle is read modulo the coboundaries of the core component; the basis
is the package's one greedy scan (``rational_linalg.greedy_span``) over
those residuals, and a class vector is solved over the kept ones.  So the
cohomology basis and every class vector are what they are on J, while J's
own matrix from below, the largest one a Massey value has, is built only
for a primitive or for ``cohomology_dimension`` (checked in the tests
against the Hochster ranks).

Normal form and signs: u-variables first in ascending order, then
v-variables ascending.  v's are even (degree 2) and contribute no signs;
u's are odd, so merging two u-blocks contributes the parity of the shuffle,
and dropping u_i from position k (0-based) of a u-block contributes (-1)^k.
"""

from functools import lru_cache

from .complexes import _as_list, _mask_of, _tuple_of
from .errors import AmbientMismatchError, InputError, NotACocycleError
from .rational_linalg import Rational, SparseMatrix, greedy_span

_ONE = Rational(1)


def normal_part(vertices, m, what):
    """One part of a normal-form monomial as the mask of its vertices 1..m.

    A vertex out of range, or one given twice (u_i u_i = 0, v_i v_i = 0 and
    t_i t_i = t_i, so no normal-form monomial repeats one), is an error.
    """
    part = _as_list(vertices, what)
    mask = _mask_of(part, m)
    if mask.bit_count() != len(part):
        raise InputError(f"{what} {tuple(sorted(part))} repeats a vertex")
    return mask


def shuffle_sign(a, b):
    """Sign of the shuffle merging two disjoint masks of odd generators, a's block first.

    Each vertex of b passes the vertices of a above it.
    """
    inversions = 0
    while b:
        low = b & -b
        b ^= low
        inversions += (a & -low).bit_count()
    return -1 if inversions & 1 else 1


class Cochain:
    """Rational linear combination of normal-form monomials over a fixed complex.

    The arithmetic both cochain models share.  A term u_S x_T is keyed by the
    vertex masks (S, T); a model sets its second letter x as ``LETTER`` and
    that generator's degree as ``LETTER_DEGREE``, and defines ``monomial``,
    ``__mul__`` and ``differential_terms(K, u, w)``, the ((u', w'), +-1) terms
    of d(u_S x_T), which ``_differential`` sums (each model writes its
    matrices from masks on its own); cochains of two models never combine or
    compare equal, and a ``Rational`` coefficient is stored as it is.
    """

    __slots__ = ("complex", "terms")

    def __init__(self, complex, terms=None):
        self.complex = complex
        clean = {}
        for key, coeff in (terms or {}).items():
            if type(coeff) is not Rational:
                coeff = Rational(coeff)
            if coeff:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, complex):
        return cls(complex)

    @classmethod
    def unit(cls, complex):
        return cls(complex, {(0, 0): _ONE})

    def is_zero(self):
        return not self.terms

    def _differential(self):
        """d of every term, summed from the signs of ``differential_terms``."""
        out = {}
        for (u, w), coeff in self.terms.items():
            for target, sign in self.differential_terms(self.complex, u, w):
                out[target] = out.get(target, 0) + (coeff if sign == 1 else -coeff)
        return type(self)(self.complex, out)

    def _check_ambient(self, other):
        if type(self) is not type(other):
            raise AmbientMismatchError(
                f"cannot combine a {type(self).__name__} with a {type(other).__name__}"
            )
        if self.complex != other.complex:
            raise AmbientMismatchError("cochains live over different complexes")

    def __add__(self, other):
        self._check_ambient(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return type(self)(self.complex, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        factor = Rational(factor)
        if not factor:
            return type(self)(self.complex)
        return type(self)(self.complex, {k: c * factor for k, c in self.terms.items()})

    def degree(self):
        """Common total degree of all terms; None for the zero cochain."""
        degs = {u.bit_count() + self.LETTER_DEGREE * w.bit_count() for u, w in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"cochain is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.complex == other.complex and self.terms == other.terms

    @classmethod
    def _word(cls, u, w):
        """The monomial u_S x_T of the masks (S, T) as text, e.g. ``u1u4v2``."""
        us = "".join(f"u{v}" for v in _tuple_of(u))
        xs = "".join(f"{cls.LETTER}{v}" for v in _tuple_of(w))
        return (us + xs) or "1"

    def __repr__(self):
        """Terms in the order of their vertex tuples (u1u10 before u2), not of their masks."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (_tuple_of(k[0]), _tuple_of(k[1])))
        parts = []
        for u, w in keys:
            c, word = self.terms[u, w], self._word(u, w)
            parts.append(f"{c}*{word}" if c != 1 else word)
        return " + ".join(parts)


class KoszulCochain(Cochain):
    """Rational linear combination of Koszul monomials u_S v_T over a fixed complex."""

    __slots__ = ()

    LETTER = "v"
    LETTER_DEGREE = 2

    @classmethod
    def monomial(cls, complex, u_vertices, v_vertices, coeff=1):
        u = normal_part(u_vertices, complex.m, "u-part")
        v = normal_part(v_vertices, complex.m, "v-part")
        if u & v:
            raise InputError(f"u-part {_tuple_of(u)} and v-part {_tuple_of(v)} overlap")
        if not complex.is_face_mask(v):
            raise InputError(f"v-part {_tuple_of(v)} is not a face")
        return cls(complex, {(u, v): Rational(coeff)})

    def multidegree(self):
        mds = {u | v for u, v in self.terms}
        if not mds:
            return None
        if len(mds) > 1:
            raise InputError("cochain is not multihomogeneous")
        return _tuple_of(mds.pop())

    def bar(self):
        """(-1)^degree times self (sign convention for defining systems)."""
        d = self.degree()
        if d is None:
            return self
        return self.scaled(-1) if d & 1 else self

    @staticmethod
    def differential_terms(K, u, v):
        """Terms of d(u_S v_T): dropping u_i from 0-based position k of the
        u-block and adding v_i contributes (-1)^k, where T + i is a face."""
        rest, k = u, 0
        while rest:
            low = rest & -rest
            rest ^= low
            if K.is_face_mask(v | low):
                yield (u ^ low, v | low), -1 if k & 1 else 1
            k += 1

    def differential(self):
        """d(u_S v_T) = sum over i in S of +- u_{S-i} v_{T+i}, faces only."""
        return self._differential()

    def __mul__(self, other):
        """Product: zero on overlapping multidegrees or non-face v-parts,
        otherwise the merged monomial with the u-shuffle sign."""
        self._check_ambient(other)
        K = self.complex
        out = {}
        for (u1, v1), c1 in self.terms.items():
            md1 = u1 | v1
            for (u2, v2), c2 in other.terms.items():
                if md1 & (u2 | v2) or not K.is_face_mask(v1 | v2):
                    continue
                key = (u1 | u2, v1 | v2)
                out[key] = out.get(key, 0) + c1 * c2 * shuffle_sign(u1, u2)
        return KoszulCochain(K, out)


# -- multidegree components -----------------------------------------------------


class ComponentBasis:
    """Basis and differential data of one (multidegree, total degree) component.

    Monomials are all u_S v_T with S u T = J, T a face, of the given total
    degree, sorted by u-part; since |S| + 2|T| is the degree and S u T = J,
    they are the faces T of K inside J with |T| = degree - |J|.  The basis
    is kept as that level of the face masks of K_J (``_faces``), in reverse
    lex order of T: for subsets of J of equal size, the lex order of the
    u-parts J - T is the reverse of the lex order of the faces T.  The
    cochain term of row r is keyed (J - T, T), T = ``_faces[r]``.

    The differential from below is built once and cached in ``_cache``, as
    are the cohomology dimension and basis.  The matrix is eliminated once,
    with its row operations logged, and that one pass serves its rank,
    ``primitive`` (a back substitution over its pivot rows), the cocycles
    of the component below (its kernel, built one vector at a time, so the
    basis scan builds only the cocycles it reads) and cohomology read
    modulo the coboundaries.

    ``cohomology_basis`` and ``class_vector`` read cohomology on the core
    component (J - R, t - |R|), R the dominated vertices stripped from J
    (``_core``): a cocycle of J is contracted onto it (``_contract``) and
    reduced to its residual under the core's matrix from below (see
    ``SparseMatrix.residual``).  The basis is still J's canonical cocycles,
    kept greedily in their canonical order by ``greedy_span`` while their
    residuals stay independent, and the number kept is the core's
    ``cohomology_dimension`` (0, with no core component built, when the core
    is one vertex and R is nonempty).  The kept residuals are the columns of
    one small matrix, over which a class vector is a solution.
    """

    __slots__ = ("complex", "multidegree", "total_degree", "_mask", "_faces", "_cache")

    def __init__(self, complex, multidegree, total_degree):
        self.complex = complex
        self._mask = mask = _mask_of(multidegree, complex.m)
        self.multidegree = _tuple_of(mask)
        self.total_degree = total_degree
        self._faces = complex.face_masks(total_degree - mask.bit_count(), mask)[::-1]
        self._cache = {}

    def __len__(self):
        return len(self._faces)

    def _neighbor(self, offset):
        return _component_cached(self.complex, self.multidegree, self.total_degree + offset)

    def matrix_from_below(self):
        """Differential (degree-1 component) -> (this component), target rows.

        Column j is d(u_{J - T} v_T) for the face T = ``below._faces[j]``:
        dropping u_i, at 0-based position k of the u-block J - T, gives the
        entry (-1)^k in the row of T + i, when T + i is a face, which is
        exactly when it is a face of this component's basis (the signs of
        ``KoszulCochain.differential_terms``).
        """
        if "from_below" not in self._cache:
            rows = self._rows()
            below = self._neighbor(-1)._faces
            J = self._mask
            matrix = [{} for _ in rows]
            for col, T in enumerate(below):
                rest, k = J ^ T, 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    r = rows.get(T | low)
                    if r is not None:
                        matrix[r][col] = -1 if k & 1 else 1
                    k += 1
            self._cache["from_below"] = SparseMatrix.from_rows(len(below), matrix)
        return self._cache["from_below"]

    def _rows(self):
        """Row of each basis face T, as a mask."""
        if "rows" not in self._cache:
            self._cache["rows"] = {T: r for r, T in enumerate(self._faces)}
        return self._cache["rows"]

    def matrix_to_above(self):
        return self._neighbor(+1).matrix_from_below()

    def cocycle_basis(self):
        """The canonical cocycles: the kernel of ``matrix_to_above``, built lazily.

        Nothing, not even the matrix, is built before the first cocycle is read.
        """
        yield from self.matrix_to_above().kernel()

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
        kept before them, until there are as many as the core's
        ``cohomology_dimension``.  A cocycle is read modulo the coboundaries
        as the residual of its contraction under the core's
        ``matrix_from_below`` (see ``greedy_span``).
        """
        return self._classes()[0]

    def _classes(self):
        """(cohomology basis, the matrix whose columns are its residuals on the core)."""
        if "hbasis" not in self._cache:
            core = self._core()[0]
            hdim = core.cohomology_dimension() if core else 0
            self._cache["hbasis"] = greedy_span(
                self.cocycle_basis(), self._core_residual, len(core) if core else 0, hdim
            )
        return self._cache["hbasis"]

    def _core(self):
        """(core component, mask R of the vertices stripped from J).

        The dominated vertices of K_J are stripped one at a time
        (``SimplicialComplex.strong_core``), and the core component is
        (J - R, t - |R|), the component itself when R is empty.  When R is
        nonempty and the core is one vertex, K_J has no cohomology, no core
        component is built and the component is None.
        """
        if "core" not in self._cache:
            K = self.complex
            mask = K.strong_core(self._mask)
            R, core = self._mask ^ mask, None
            if R and mask & (mask - 1):
                core = _component_cached(K, _tuple_of(mask), self.total_degree - R.bit_count())
            self._cache["core"] = (core, R)  # not self, which would make a cycle
        core, R = self._cache["core"]
        return (core if R else self), R

    def _core_residual(self, vec):
        """The residual of ``_contract(vec)`` under the core's ``matrix_from_below``.

        Zero exactly when the cocycle of vec is a coboundary, and linear in vec.
        """
        return self._core()[0].matrix_from_below().residual(self._contract(vec))

    def _contract(self, vec):
        """iota(vec): the core component's coordinates of the cochain with coordinates vec.

        iota, the contraction by d/du_v for each v in R, sends u_S v_T to 0
        when T meets R, and otherwise to u_{S-R} v_T with the sign (-1)^n, n
        the number of pairs (v, s) with v in R, s in S and s < v.
        It anticommutes with d for each v, and on K_J it is the restriction
        to the full subcomplex K_{J-R}, onto which K_J strong-collapses, so
        it is an isomorphism on cohomology.  With R empty it is the identity.
        """
        core, R = self._core()
        if not R:
            return vec
        image, rows, J = [0] * len(core), core._rows(), self._mask
        for T, c in zip(self._faces, vec):
            if c and not T & R:
                S, rest, flips = J ^ T, R, 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    flips += (S & (low - 1)).bit_count()
                image[rows[T]] = -c if flips & 1 else c
        return image

    def coordinates(self, cochain):
        """Coefficient vector of a cochain that lies in this component."""
        vec = [Rational(0)] * len(self)
        rows, J = self._rows(), self._mask
        for (u, v), c in cochain.terms.items():
            r = rows.get(v)
            if r is None or u != J ^ v:
                word = cochain._word(u, v)
                raise InputError(f"monomial {word} outside component {self.key()}")
            vec[r] = c
        return tuple(vec)

    def cochain_from_coordinates(self, coords):
        J = self._mask
        return KoszulCochain(self.complex, {(J ^ T, T): c for T, c in zip(self._faces, coords)})

    def primitive(self, cochain):
        """The deterministic c with dc = cochain (free variables zero), or None.

        c lives in the component one degree below; None means the cochain is
        not a coboundary.
        """
        x = self.matrix_from_below().solve(self.coordinates(cochain))
        if x is None:
            return None
        return self._neighbor(-1).cochain_from_coordinates(x)

    def class_vector(self, cochain):
        """Coordinates of [cochain] in the cohomology basis (zero iff coboundary).

        The residual of the cochain modulo the coboundaries, read on the
        core, is solved over the basis residuals, which are independent, so
        the coordinates are unique.
        """
        if not cochain.differential().is_zero():
            raise NotACocycleError(f"d({cochain!r}) != 0")
        basis, span = self._classes()
        if not basis:
            return ()
        x = span.solve(self._core_residual(self.coordinates(cochain)))
        if x is None:  # cannot happen for a cocycle of this component
            raise NotACocycleError("cocycle not in span of coboundaries + cohomology basis")
        return x

    def key(self):
        return (self.multidegree, self.total_degree)


@lru_cache(maxsize=None)
def _component_cached(complex, multidegree, total_degree):
    return ComponentBasis(complex, multidegree, total_degree)


def component_basis(K, J, total_degree):
    """Memoized component for multidegree J (any iterable of vertices)."""
    return _component_cached(K, _tuple_of(_mask_of(J, K.m)), total_degree)


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


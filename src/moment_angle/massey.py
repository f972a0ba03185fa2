"""Defining systems, Massey values, strictness certificates, and witness search.

A defining system for classes (a_1, ..., a_k) is an upper-triangular matrix
of cochains C with c_{i,i+1} = a_i and

    d c_{i,j} = sum_{p=i+1}^{j-1} bar(c_{i,p}) c_{p,j},   bar(c) = (-1)^{deg c} c,

for all cells below the corner; the corner residue

    a(C) = d c_{1,k+1} - sum_{p=2}^{k} bar(c_{1,p}) c_{p,k+1}

is a cocycle whose class is an element of the k-fold product.  Classes here
are supported on pairwise disjoint vertex subsets, so every cell lives in
the component of multidegree I_i u ... u I_{j-1}, which keeps all the linear
algebra local and small.

Cells are filled greedily in increasing band order with the deterministic
particular solution (free variables zero).  For k = 3 greedy is exact: the
two cell equations are independent, so failure decides non-existence.  For
k >= 4 a greedy failure is reported as such, never as "not defined": earlier
non-greedy choices could still succeed, and deciding that is not attempted.
When the vanishing conditions on the window cohomology hold, the product is
strictly defined and greedy cannot fail.

Each class checks its representative once, when it is made.  One report
builder decides every status: ``massey_product`` and the witness search
both hand it the value set they read, so no value is built twice.  The
search decides whether the cup products and the indeterminacy of a triple
of degree-0 classes vanish on the 1-skeleton (proof at
``search_triple_products``), and builds classes and cochains only for the
triples that pass.

All class-level comparisons against named representatives are made up to a
nonzero rational scalar, since printed representatives are only well defined
up to sign conventions.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple, Optional

from .complexes import _mask_of, _tuple_of
from .errors import CapacityError, InputError, VerificationError
from .families import FamilySpec, family_complex
from .hochster import multigraded_betti
from .koszul import KoszulCochain, component_basis
from .multiwedge import wedge_vertex_map
from .rational_linalg import greedy_span

# order n of a certified family product; K(n, 1) certifies in 0.02 s at 17 MB
# for n = 6, 0.06 s at 17 MB for n = 8 and 3.8 s at 43 MB for n = 20, (6, 2)
# in 1.2 s at 76 MB, (3, 8) in 0.12 s at 25 MB and (4, 4) in 0.6 s at 40 MB;
# guard face-level (or family-size past m = 128) refuses (4, 5), (5, 3) and
# (7, 2) after 0.2-2.4 s, (8, 15) after 3.7 s and (8, 2) after 3.6 s at
# 159 MB, while the refusal of (10, 2) takes 6.5 s and 231 MB
# (one fresh process each, verify_family_massey with this cap lifted, 2-vCPU
# Xeon, Python 3.11.7, Fraction backend)
FAMILY_ORDER_CAPACITY = 8
SEARCH_TRIPLE_CAPACITY = 2_000_000

STATUS_DEFINED_STRICT = "defined-strict"
STATUS_DEFINED = "defined"
STATUS_DEFINED_UNKNOWN = "defined-unknown-strictness"
STATUS_NOT_DEFINED = "not-defined"
STATUS_GREEDY_FAILED = "greedy-failed"


@dataclass(frozen=True)
class MasseyClassInput:
    """One input class: support subset, reduced degree, and a cocycle representative.

    Checked once, when made: the support names no vertex twice, the degree
    lies in -1 .. |support| - 1, and a nonzero representative is a cocycle of
    the class's multidegree and degree.
    """

    support: tuple
    reduced_degree: int
    representative: KoszulCochain

    def __post_init__(self):
        sup = _tuple_of(_mask_of(self.support, self.representative.complex.m))
        if len(sup) != len(self.support):
            raise InputError(f"class on {list(self.support)}: the support repeats a vertex")
        if not -1 <= self.reduced_degree < len(sup):
            raise InputError(
                f"class on {sup}: reduced degree {self.reduced_degree} outside "
                f"-1..{len(sup) - 1}, where its support has no cohomology"
            )
        rep = self.representative
        if rep.is_zero():
            return
        if rep.multidegree() != sup:
            raise InputError(f"class on {sup}: representative has the wrong multidegree")
        if rep.degree() != self.total_degree:
            raise InputError(
                f"class on {sup}: representative degree {rep.degree()} != "
                f"{self.total_degree} = d + |I| + 1"
            )
        if not rep.differential().is_zero():
            raise InputError(f"class on {sup}: representative is not a cocycle")

    @property
    def total_degree(self):
        return self.reduced_degree + len(self.support) + 1


class MasseyInput:
    """An ordered tuple of classes on pairwise disjoint supports of one complex."""

    def __init__(self, complex, classes):
        if len(classes) < 2:
            raise InputError("Massey products need at least 2 classes")
        self.complex = complex
        self.classes = tuple(classes)
        seen = set()
        for idx, cl in enumerate(self.classes, start=1):
            sup = set(cl.support)
            if seen & sup:
                raise InputError(f"class {idx} support overlaps an earlier one")
            seen |= sup
            if cl.representative.complex != complex:
                raise InputError(f"class {idx} representative has a different ambient")

    @property
    def k(self):
        return len(self.classes)

    def total_degree(self, j):
        return self.classes[j - 1].total_degree

    def window_support(self, start, end):
        """Union of the supports of classes start..end (1-based, inclusive)."""
        out = []
        for cl in self.classes[start - 1 : end]:
            out.extend(cl.support)
        return tuple(sorted(out))

    def window_total_degree(self, start, end):
        """m(start, end) = m(start) + ... + m(end) - (end - start + 1) + 2."""
        return sum(self.total_degree(j) for j in range(start, end + 1)) - (
            end - start + 1
        ) + 2

    def window_reduced_degree(self, start, end):
        """d(start, end) = d(start) + ... + d(end) + 1."""
        return sum(cl.reduced_degree for cl in self.classes[start - 1 : end]) + 1


def canonical_class(K, support, reduced_degree=0):
    """The class input with the deterministic first generator as representative."""
    support = _tuple_of(_mask_of(support, K.m))
    comp = component_basis(K, support, reduced_degree + len(support) + 1)
    basis = comp.cohomology_basis()
    if not basis:
        raise InputError(
            f"no nonzero class with support {support} in reduced degree {reduced_degree}"
        )
    return MasseyClassInput(support, reduced_degree, comp.cochain_from_coordinates(basis[0]))


# -- defining systems -----------------------------------------------------------


class DefiningSystem:
    def __init__(self, input, cells):
        self.input = input
        self.cells = dict(cells)  # (i, j) -> KoszulCochain, 1 <= j - i <= k - 1
        for i, cl in enumerate(input.classes, start=1):
            self.cells[(i, i + 1)] = cl.representative

    def cell(self, i, j):
        return self.cells[(i, j)]

    def rhs(self, i, j):
        out = KoszulCochain.zero(self.input.complex)
        for p in range(i + 1, j):
            out = out + self.cells[(i, p)].bar() * self.cells[(p, j)]
        return out

    def residuals(self):
        """d c_{i,j} - rhs_{i,j} for every interior cell; all must vanish."""
        out = {}
        k = self.input.k
        for span in range(2, k):
            for i in range(1, k + 2 - span):
                j = i + span
                out[(i, j)] = self.cells[(i, j)].differential() - self.rhs(i, j)
        return out

    def verify(self):
        for cell, res in self.residuals().items():
            if not res.is_zero():
                raise VerificationError(f"defining-system relation fails at {cell}")


@dataclass(frozen=True)
class CellFailure:
    """Greedy obstruction: the right-hand side at a cell is not a coboundary."""

    cell: tuple
    obstruction: tuple  # class coordinates of the rhs in its component
    support: tuple
    total_degree: int


def build_defining_system(input, perturbations=None):
    """Fill cells greedily in increasing band order; returns a system or a failure.

    After a cell is solved, an optional perturbation cocycle from the cell's
    component may be added: the system stays valid and later cells are solved
    against the perturbed values.  For k = 2 the trivial system is returned.
    """
    perturbations = perturbations or {}
    K = input.complex
    k = input.k
    ds = DefiningSystem(input, {})
    for span in range(2, k):
        for i in range(1, k + 2 - span):
            j = i + span
            rhs = ds.rhs(i, j)
            support = input.window_support(i, j - 1)
            degree = input.window_total_degree(i, j - 1) - 1
            comp_rhs = component_basis(K, support, degree + 1)
            cell = comp_rhs.primitive(rhs)
            if cell is None:
                return CellFailure(
                    cell=(i, j),
                    obstruction=comp_rhs.class_vector(rhs),
                    support=support,
                    total_degree=degree + 1,
                )
            pert = perturbations.get((i, j))
            if pert is not None:
                if not pert.differential().is_zero():
                    raise InputError(f"perturbation at {(i, j)} is not a cocycle")
                if not pert.is_zero() and (
                    pert.multidegree() != support or pert.degree() != degree
                ):
                    raise InputError(f"perturbation at {(i, j)} is in the wrong component")
                cell = cell + pert
            ds.cells[(i, j)] = cell
    ds.verify()
    return ds


@dataclass(frozen=True)
class MasseyValue:
    cochain: KoszulCochain
    support: tuple
    total_degree: int
    class_coordinates: tuple

    @property
    def is_zero(self):
        return all(c == 0 for c in self.class_coordinates)


def massey_value(ds, corner=None):
    """The corner residue's cohomology class (corner cochain defaults to zero).

    Any corner choice shifts the residue by a coboundary only, so the class
    does not depend on it.
    """
    input = ds.input
    k = input.k
    a = KoszulCochain.zero(input.complex)
    if corner is not None:
        a = a + corner.differential()
    for p in range(2, k + 1):
        a = a - ds.cells[(1, p)].bar() * ds.cells[(p, k + 1)]
    if not a.differential().is_zero():
        raise VerificationError("corner residue is not a cocycle: sign conventions broken")
    support = input.window_support(1, k)
    degree = input.window_total_degree(1, k)
    if not a.is_zero():
        if a.multidegree() != support or a.degree() != degree:
            raise VerificationError("corner residue landed outside the expected component")
    comp = component_basis(input.complex, support, degree)
    return MasseyValue(a, support, degree, comp.class_vector(a))


# -- strictness conditions --------------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    start: int
    end: int
    support: tuple
    obstruction_degree: int  # d(start, end)
    rank_below: int  # reduced rank in degree d-1; must vanish for uniqueness
    rank_at: int  # reduced rank in degree d; must vanish for solvability


@dataclass(frozen=True)
class ConditionTable:
    rows: tuple

    @property
    def uniqueness_holds(self):
        return all(r.rank_below == 0 for r in self.rows)

    @property
    def solvability_holds(self):
        return all(r.rank_at == 0 for r in self.rows)

    @property
    def strict_guarantee(self):
        return self.uniqueness_holds and self.solvability_holds


@lru_cache(maxsize=None)
def _window_rank(K, support, degree):
    """Reduced H^degree of K_support: the Betti number beta^{-i, 2 support}.

    Zero outside degrees -1 .. |support| - 1, which zero representatives of
    any reduced degree can ask for.  Read on the stored levels of the
    support's core, so a window that collapses to a vertex grows no faces.
    """
    if not -1 <= degree < len(support):
        return 0
    return multigraded_betti(K, len(support) - degree - 1, support)


def strict_conditions_check(input):
    """Vanishing table for every proper consecutive window of >= 2 classes.

    Row (s, r+s) reports the reduced cohomology ranks of the window's induced
    subcomplex in degrees d(s, r+s) - 1 and d(s, r+s).  All first ranks zero
    gives uniqueness of the value; all second ranks zero additionally forces
    every greedy cell equation to be solvable.
    """
    k = input.k
    if k < 3:
        raise InputError("strictness conditions concern products of order >= 3")
    rows = []
    for r in range(1, k - 1):
        for s in range(1, k - r + 1):
            end = r + s
            support = input.window_support(s, end)
            d = input.window_reduced_degree(s, end)
            rows.append(
                ConditionRow(
                    start=s,
                    end=end,
                    support=support,
                    obstruction_degree=d,
                    rank_below=_window_rank(input.complex, support, d - 1),
                    rank_at=_window_rank(input.complex, support, d),
                )
            )
    return ConditionTable(tuple(rows))


# -- triple products: exact value sets ---------------------------------------------


@dataclass(frozen=True)
class TripleValueSet:
    representative: MasseyValue
    indeterminacy_basis: tuple  # class-coordinate vectors spanning the indeterminacy
    contains_zero: bool
    strictly_defined: bool
    nontrivial: bool


def _shift_products(input):
    """The nonzero products a_1 z and z a_3 that move a triple's value, in a fixed order.

    z runs over the cohomology basis of classes 2..3 (where c_{2,4} may
    move), then of classes 1..2 (where c_{1,3} may move).  Every product
    lies in the component of the value, and their classes span its
    indeterminacy.
    """
    a1 = input.classes[0].representative
    a3 = input.classes[2].representative
    for start, end, multiplier, on_left in ((2, 3, a1, True), (1, 2, a3, False)):
        support = input.window_support(start, end)
        degree = input.window_total_degree(start, end) - 1
        comp = component_basis(input.complex, support, degree)
        for coords in comp.cohomology_basis():
            z = comp.cochain_from_coordinates(coords)
            prod = multiplier * z if on_left else z * multiplier
            if not prod.is_zero():
                yield prod


def triple_value_set(input, ds=None):
    """Representative plus indeterminacy span of a defined triple product.

    The value set is the affine coset (representative + span), where the span
    is generated by a_1 times classes where c_{2,4} may move and by classes
    where c_{1,3} may move times a_3.
    """
    if input.k != 3:
        raise InputError("value sets with indeterminacy are computed for k = 3 only")
    if ds is None:
        ds = build_defining_system(input)
    if isinstance(ds, CellFailure):
        raise InputError("triple product is not defined")
    value = massey_value(ds)
    target = component_basis(input.complex, value.support, value.total_degree)
    hdim = len(value.class_coordinates)

    # no product is read for a target with no cohomology, or past the one
    # whose class completes a basis of the whole target
    vectors = map(target.class_vector, _shift_products(input))
    basis, span = greedy_span(vectors, lambda vec: vec, hdim, hdim)
    contains_zero = span.solve(value.class_coordinates) is not None
    return TripleValueSet(
        representative=value,
        indeterminacy_basis=basis,
        contains_zero=contains_zero,
        strictly_defined=not basis,
        nontrivial=not contains_zero,
    )


# -- consolidated reports -----------------------------------------------------------


@dataclass
class MasseyReport:
    order: int
    supports: tuple
    reduced_degrees: tuple
    status: str
    conditions: Optional[ConditionTable]
    value: Optional[MasseyValue]
    triple: Optional[TripleValueSet]
    failure: Optional[CellFailure]

    @property
    def value_is_zero(self):
        return self.value is not None and self.value.is_zero


def massey_product(input, ds=None):
    """Run the full decision procedure for one ordered tuple of classes.

    ``ds`` is a defining system (or failure) already built for the input.
    """
    conditions = strict_conditions_check(input) if input.k >= 3 else None
    if ds is None:
        ds = build_defining_system(input)
    triple = None
    if input.k == 3 and not isinstance(ds, CellFailure):
        triple = triple_value_set(input, ds)
    return _report(input, conditions, ds, triple)


def _report(input, conditions, ds, triple):
    """The report on ``ds`` (or its failure) with its condition table and,
    for k = 3, the value set ``triple`` already read from ``ds``."""
    k = input.k
    supports = tuple(cl.support for cl in input.classes)
    degrees = tuple(cl.reduced_degree for cl in input.classes)
    if isinstance(ds, CellFailure):
        status = STATUS_NOT_DEFINED if k == 3 else STATUS_GREEDY_FAILED
        if k >= 4 and conditions.strict_guarantee:
            raise VerificationError(
                "greedy solve failed although the vanishing conditions guarantee it"
            )
        return MasseyReport(k, supports, degrees, status, conditions, None, None, ds)

    if k == 3:
        value = triple.representative
        if conditions.strict_guarantee and not triple.strictly_defined:
            raise VerificationError("vanishing conditions hold but indeterminacy is nonzero")
        status = STATUS_DEFINED_STRICT if triple.strictly_defined else STATUS_DEFINED
    else:
        value = massey_value(ds)
        strict = k == 2 or conditions.uniqueness_holds  # a 2-fold product is the cup product
        status = STATUS_DEFINED_STRICT if strict else STATUS_DEFINED_UNKNOWN
    return MasseyReport(k, supports, degrees, status, conditions, value, triple, None)


# -- witness search -----------------------------------------------------------------


class _Support(NamedTuple):
    """A candidate support J whose 1-skeleton K_J has exactly two components."""

    vertices: tuple
    mask: int
    parts: tuple  # the masks of the two components P and Q
    near: tuple  # the vertices joined by an edge of K to P, and to Q


def _h0_candidates(K, size, capacity):
    """Supports of the given size whose induced subcomplex has exactly 2 components.

    Each is a ``_Support``, in lexicographic order.  Raises CapacityError
    before scanning more than ``capacity`` subsets.
    """
    stars = K._nonface_stars()

    def near(part):  # ~pairs of v: v and every u with {u, v} an edge
        out = 0
        for v in _tuple_of(part):
            out |= ~stars[v][0]
        return out

    out = []
    subsets = itertools.combinations(range(1, K.m + 1), size)
    for scanned, J in enumerate(subsets):
        if scanned == capacity:
            raise CapacityError(
                "triple-search",
                f"capacity {capacity} reached after scanning {scanned} of the "
                f"{math.comb(K.m, size)} candidate supports of size {size}",
            )
        mask = _mask_of(J, K.m)
        parts = K.component_masks(mask)
        if len(parts) == 2:
            out.append(_Support(J, mask, tuple(parts), (near(parts[0]), near(parts[1]))))
    return out


def _bridging(parts, support):
    """How many of the disjoint masks ``parts`` bridge ``support``.

    A part D bridges a support J with components P and Q when some edge of
    K joins D to P and some edge joins D to Q.
    """
    to_p, to_q = support.near
    return sum(1 for part in parts if part & to_p and part & to_q)


def _cup_is_zero(a, b):
    """Whether the product of the classes on the supports ``a`` and ``b`` is zero."""
    return _bridging(b.parts, a) < 2


def _shifts_are_zero(K, s1, s2, s3, parts12):
    """Whether the indeterminacy of the triple on the supports s1, s2, s3 is zero.

    ``parts12`` are the components of K_{J1 u J2}, found once per pair (s1,
    s2); the components of K_{J2 u J3} are found only when at most one of
    ``parts12`` bridges s3.
    """
    return (
        _bridging(parts12, s3) < 2
        and _bridging(K.component_masks(s2.mask | s3.mask), s1) < 2
    )


def search_triple_products(K, profile=None, capacity=SEARCH_TRIPLE_CAPACITY,
                           require_strict=False):
    """First nontrivial triple product under a fixed deterministic enumeration.

    ``profile`` lists the three class dimensions m(j) (default (3, 3, 3));
    classes are degree-0 classes of disconnected induced subcomplexes on
    m(j) - 1 vertices with one-dimensional target, taken with their canonical
    generators.  Supports are scanned in lexicographic order, and the
    ``massey_product`` report of the first triple whose value set misses
    zero is returned (None if there is none); with ``require_strict`` the
    value set must in addition be a single class (zero indeterminacy).
    ``capacity`` bounds both the supports scanned for each class size and
    the candidate triples examined.

    Each candidate triple meets one chain of tests in both modes, and the
    first that fails rejects it (a rejected triple still counts toward
    ``capacity``):

    1. with ``require_strict`` only, the shifts: the indeterminacy must be
       zero;
    2. the target rank: by Hochster's formula the value lies in H~^1 of K
       on J = J1 u J2 u J3, and a triple with that rank zero can never be a
       witness.  It is read once per J in a search;
    3. the cup cells: a_1 a_2 and a_2 a_3 must vanish;
    4. the value set, read once by ``triple_value_set``, which must miss
       zero.  With ``require_strict`` a value set that is not a single
       class raises ``VerificationError``, since test 1 decided it is one.

    Tests 1 and 3 are read on the 1-skeleton, and no class or cochain is
    built for a triple that fails them.  Each support J_i has two
    components P_i and Q_i; a component D of K_B bridges J_i when some edge
    of K joins D to P_i and some edge joins D to Q_i.  Then

    - a_i a_j != 0 exactly when both components of K_{J_j} bridge J_i;
    - the indeterminacy a_1 H~^0(K_{J2 u J3}) + H~^0(K_{J1 u J2}) a_3 is
      nonzero exactly when two or more components of K_{J2 u J3} bridge J1,
      or two or more components of K_{J1 u J2} bridge J3.

    Proof.  Under Hochster's isomorphism, with Baskakov's product (Russ.
    Math. Surveys 57, 2002), the product of 0-classes f on A and g on B
    (disjoint) is the 1-cocycle c(a, b) = f(a) g(b) on the edges of
    K_{A u B} from A to B, and 0 on the edges inside A or inside B.  A
    potential h with dh = c is constant on every component of K_A and of
    K_B, and across an edge from a component C of K_A to a component D of
    K_B it must step by f(C) g(D).  So c is a coboundary exactly when these
    steps sum to zero around every cycle of the graph whose nodes are the
    components and whose arcs join the components some edge of K joins.
    Here K_A has the two components P and Q, so the cycles are spanned by
    the 4-cycles P - D - Q - D' over pairs of components D, D' of K_B that
    both bridge A, where the steps sum to (f(P) - f(Q)) (g(D) - g(D')) with
    f(P) != f(Q).  For the cup products K_B has two components on which g
    differs; for the shifts g runs over all of H~^0(K_B), the functions
    constant on its components, so some g separates two bridging
    components as soon as there are two.  Whether a 1-cochain is a
    coboundary reads only the 1-skeleton, so the rules hold for every
    complex, flag or not.

    A triple that reaches test 4 is given its canonical classes and its two
    solved cup cells.  Only the returned witness gets a report: its
    condition table, with the value set that decided it, as
    ``massey_product`` would build it.
    """
    if profile is None:
        profile = (3, 3, 3)
    profile = tuple(profile)
    if len(profile) != 3 or any(d < 3 for d in profile):
        raise InputError(f"profile must list three class dimensions >= 3, got {profile}")
    sizes = tuple(d - 1 for d in profile)
    candidates = {size: _h0_candidates(K, size, capacity) for size in set(sizes)}

    @cache
    def cls(J):
        return canonical_class(K, J)

    @cache
    def cup_cell(Ja, Jb):
        """Solved cell for <a, b>, whose product the 1-skeleton rule found zero."""
        a, b = cls(Ja), cls(Jb)
        comp = component_basis(K, tuple(sorted(Ja + Jb)), a.total_degree + b.total_degree)
        cell = comp.primitive(a.representative.bar() * b.representative)
        if cell is None:
            raise VerificationError(f"cup product on {Ja}, {Jb} is not zero: 1-skeleton rule broken")
        return cell

    @cache
    def target_rank(union):
        # the value lies in reduced degree d(1, 3) = 1 on J1 u J2 u J3
        return _window_rank(K, _tuple_of(union), 1)

    examined = 0
    for s1 in candidates[sizes[0]]:
        for s2 in candidates[sizes[1]]:
            if s1.mask & s2.mask:
                continue
            mask12 = s1.mask | s2.mask
            parts12 = K.component_masks(mask12) if require_strict else None
            for s3 in candidates[sizes[2]]:
                if mask12 & s3.mask:
                    continue
                examined += 1
                if examined > capacity:
                    raise CapacityError(
                        "triple-search",
                        f"examined more than {capacity} candidate triples",
                    )
                if require_strict and not _shifts_are_zero(K, s1, s2, s3, parts12):
                    continue
                if not target_rank(mask12 | s3.mask):
                    continue
                if not (_cup_is_zero(s1, s2) and _cup_is_zero(s2, s3)):
                    continue
                J1, J2, J3 = s1.vertices, s2.vertices, s3.vertices
                input = MasseyInput(K, (cls(J1), cls(J2), cls(J3)))
                ds = DefiningSystem(input, {(1, 3): cup_cell(J1, J2), (2, 4): cup_cell(J2, J3)})
                triple = triple_value_set(input, ds)
                if require_strict and not triple.strictly_defined:
                    raise VerificationError("indeterminacy is not zero: 1-skeleton rule broken")
                if triple.nontrivial:
                    return _report(input, strict_conditions_check(input), ds, triple)
    return None


# -- the named families ---------------------------------------------------------------


def family_massey_input(n, s):
    """K(n,s) with its canonical classes on the inflated non-faces {j-copies, n+j}.

    This is the degree-prescribed input with every class of dimension 2s + 1:
    the representative of the j-th class is u on the first copy of vertex j
    times v over its remaining copies and over vertex n+j.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    if s < 1:
        raise InputError(f"need s >= 1, got {s}")
    return degree_prescribed_input((2 * s + 1,) * n)


def degree_prescribed_input(odd_degrees):
    """Classes of prescribed odd dimensions (k_1, ..., k_n) on the wedged base family."""
    from .families import degree_prescribed_complex

    ks = tuple(odd_degrees)
    K = degree_prescribed_complex(ks)
    n = len(ks)
    d = tuple((k - 1) // 2 for k in ks)
    base = family_complex(FamilySpec("k", n=n))
    copies = wedge_vertex_map(base, d + (1,) * n)
    classes = []
    for j in range(1, n + 1):
        block = copies[j]
        partner = copies[n + j]
        support = tuple(sorted(block + partner))
        rep = KoszulCochain.monomial(K, (block[0],), block[1:] + partner)
        classes.append(MasseyClassInput(support, d[j - 1] - 1, rep))
    return MasseyInput(K, classes)


@dataclass
class SubproductReport:
    start: int
    order: int
    status: str
    value_is_zero: bool


@dataclass
class FamilyMasseyReport:
    n: int
    s: int
    report: MasseyReport
    subproducts: tuple  # SubproductReport for every proper consecutive window


def verify_family_massey(n, s):
    """Certify the n-fold product on K(n,s): strictly defined, value nonzero,
    with every proper consecutive sub-product strictly zero.

    Raises VerificationError if any certified fact fails to hold.
    """
    if n > FAMILY_ORDER_CAPACITY:
        raise CapacityError("family-order", f"n = {n} exceeds capacity {FAMILY_ORDER_CAPACITY}")
    input = family_massey_input(n, s)
    report = massey_product(input)
    if report.status != STATUS_DEFINED_STRICT:
        raise VerificationError(f"K({n},{s}): status {report.status}, expected strict")
    if report.value is None or report.value.is_zero:
        raise VerificationError(f"K({n},{s}): value unexpectedly zero")
    if n >= 3 and not report.conditions.strict_guarantee:
        raise VerificationError(f"K({n},{s}): vanishing conditions do not all hold")

    subreports = []
    for order in range(2, n):
        for start in range(1, n - order + 2):
            sub = MasseyInput(input.complex, input.classes[start - 1 : start - 1 + order])
            subreport = massey_product(sub)
            subreports.append(
                SubproductReport(
                    start=start,
                    order=order,
                    status=subreport.status,
                    value_is_zero=subreport.value_is_zero,
                )
            )
            if subreport.status != STATUS_DEFINED_STRICT or not subreport.value_is_zero:
                raise VerificationError(
                    f"K({n},{s}): window ({start}..{start + order - 1}) is not strictly zero"
                )
    return FamilyMasseyReport(n=n, s=s, report=report, subproducts=tuple(subreports))

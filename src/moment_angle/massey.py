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

All class-level comparisons against named representatives are made up to a
nonzero rational scalar, since printed representatives are only well defined
up to sign conventions.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import CapacityError, InputError, VerificationError
from .families import FamilySpec, family_complex
from .koszul import KoszulCochain, component_basis
from .multiwedge import wedge_vertex_map
from .rational_linalg import (
    Rational,
    SparseMatrix,
    reduced_cohomology_rank,
    solve_linear,
)

FAMILY_ORDER_CAPACITY = 5
SEARCH_TRIPLE_CAPACITY = 2_000_000

_ZERO = Rational(0)

STATUS_DEFINED_STRICT = "defined-strict"
STATUS_DEFINED = "defined"
STATUS_DEFINED_UNKNOWN = "defined-unknown-strictness"
STATUS_NOT_DEFINED = "not-defined"
STATUS_GREEDY_FAILED = "greedy-failed"


@dataclass(frozen=True)
class MasseyClassInput:
    """One input class: support subset, reduced degree, and a cocycle representative."""

    support: tuple
    reduced_degree: int
    representative: KoszulCochain

    @property
    def total_degree(self):
        return self.reduced_degree + len(self.support) + 1


class MasseyInput:
    """An ordered tuple of classes on pairwise disjoint supports."""

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
            rep = cl.representative
            if rep.complex != complex:
                raise InputError(f"class {idx} representative has a different ambient")
            if rep.is_zero():
                continue
            if rep.multidegree() != tuple(sorted(sup)):
                raise InputError(f"class {idx} representative has the wrong multidegree")
            if rep.degree() != cl.total_degree:
                raise InputError(
                    f"class {idx} representative degree {rep.degree()} != "
                    f"{cl.total_degree} = d + |I| + 1"
                )
            if not rep.differential().is_zero():
                raise InputError(f"class {idx} representative is not a cocycle")

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

    def value_component(self):
        return component_basis(
            self.complex,
            self.window_support(1, self.k),
            self.window_total_degree(1, self.k),
        )


def canonical_class(K, support, reduced_degree=0):
    """The class input with the deterministic first generator as representative."""
    support = tuple(sorted(set(support)))
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
    return reduced_cohomology_rank(K.induced(support), degree)


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


def _independent_columns(vectors):
    """The vectors a greedy left-to-right scan keeps as independent."""
    if not vectors:
        return ()
    span = SparseMatrix(len(vectors[0]), 0).with_columns(vectors)
    return tuple(vectors[c] for c in span.pivot_columns())


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
    a1 = input.classes[0].representative
    a3 = input.classes[2].representative

    shift_vectors = []
    for start, end, multiplier, on_left in (
        (2, 3, a1, True),
        (1, 2, a3, False),
    ):
        support = input.window_support(start, end)
        degree = input.window_total_degree(start, end) - 1
        comp = component_basis(input.complex, support, degree)
        for coords in comp.cohomology_basis():
            z = comp.cochain_from_coordinates(coords)
            prod = multiplier * z if on_left else z * multiplier
            if prod.is_zero():
                continue
            vec = target.class_vector(prod)
            if any(v != 0 for v in vec):
                shift_vectors.append(vec)

    basis = _independent_columns(shift_vectors)
    hdim = len(target.cohomology_basis())
    if basis:
        contains_zero = (
            solve_linear(SparseMatrix(hdim, 0).with_columns(basis), value.class_coordinates)
            is not None
        )
    else:
        contains_zero = value.is_zero
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


def massey_product(input):
    """Run the full decision procedure for one ordered tuple of classes."""
    k = input.k
    supports = tuple(cl.support for cl in input.classes)
    degrees = tuple(cl.reduced_degree for cl in input.classes)
    conditions = strict_conditions_check(input) if k >= 3 else None

    ds = build_defining_system(input)
    if isinstance(ds, CellFailure):
        status = STATUS_NOT_DEFINED if k == 3 else STATUS_GREEDY_FAILED
        if k >= 4 and conditions.strict_guarantee:
            raise VerificationError(
                "greedy solve failed although the vanishing conditions guarantee it"
            )
        return MasseyReport(k, supports, degrees, status, conditions, None, None, ds)

    value = massey_value(ds)
    triple = None
    if k == 2:
        status = STATUS_DEFINED_STRICT  # a 2-fold product is the cup product
    elif k == 3:
        triple = triple_value_set(input, ds)
        if conditions.strict_guarantee and not triple.strictly_defined:
            raise VerificationError("vanishing conditions hold but indeterminacy is nonzero")
        status = STATUS_DEFINED_STRICT if triple.strictly_defined else STATUS_DEFINED
    else:
        if conditions.uniqueness_holds:
            status = STATUS_DEFINED_STRICT
        else:
            status = STATUS_DEFINED_UNKNOWN
    return MasseyReport(k, supports, degrees, status, conditions, value, triple, None)


# -- witness search -----------------------------------------------------------------


@dataclass(frozen=True)
class TripleWitness:
    supports: tuple
    reduced_degrees: tuple
    report: MasseyReport


def _h0_candidates(K, size):
    """Supports of the given size whose induced subcomplex has exactly 2 components."""
    out = []
    for J in itertools.combinations(range(1, K.m + 1), size):
        if K.component_count(J) == 2:
            out.append(J)
    return out


def search_triple_products(K, profile=None, capacity=SEARCH_TRIPLE_CAPACITY,
                           require_strict=False):
    """First nontrivial triple product under a fixed deterministic enumeration.

    ``profile`` lists the three class dimensions m(j) (default (3, 3, 3));
    classes are degree-0 classes of disconnected induced subcomplexes on
    m(j) - 1 vertices with one-dimensional target, taken with their canonical
    generators.  Supports are scanned in lexicographic order and the first
    triple whose value set misses zero is returned; with ``require_strict``
    the value set must in addition be a single class (zero indeterminacy).
    """
    if profile is None:
        profile = (3, 3, 3)
    profile = tuple(profile)
    if len(profile) != 3 or any(d < 3 for d in profile):
        raise InputError(f"profile must list three class dimensions >= 3, got {profile}")
    sizes = tuple(d - 1 for d in profile)
    candidates = {size: _h0_candidates(K, size) for size in set(sizes)}
    cell_cache = {}

    def cup_cell(cl_a, cl_b):
        """Solved cell for <a, b> or None when the cup class is nonzero."""
        key = (cl_a.support, cl_b.support)
        if key not in cell_cache:
            rhs = cl_a.representative.bar() * cl_b.representative
            support = tuple(sorted(cl_a.support + cl_b.support))
            degree = cl_a.total_degree + cl_b.total_degree
            cell_cache[key] = component_basis(K, support, degree).primitive(rhs)
        return cell_cache[key]

    examined = 0
    class_cache = {}

    def cls(J, size):
        if J not in class_cache:
            class_cache[J] = canonical_class(K, J)
        return class_cache[J]

    for J1 in candidates[sizes[0]]:
        s1 = set(J1)
        for J2 in candidates[sizes[1]]:
            if s1 & set(J2):
                continue
            s12 = s1 | set(J2)
            for J3 in candidates[sizes[2]]:
                if s12 & set(J3):
                    continue
                examined += 1
                if examined > capacity:
                    raise CapacityError(
                        "triple-search",
                        f"examined more than {capacity} candidate triples",
                    )
                c1, c2, c3 = cls(J1, sizes[0]), cls(J2, sizes[1]), cls(J3, sizes[2])
                cell13 = cup_cell(c1, c2)
                if cell13 is None:
                    continue
                cell24 = cup_cell(c2, c3)
                if cell24 is None:
                    continue
                input = MasseyInput(K, (c1, c2, c3))
                ds = DefiningSystem(input, {(1, 3): cell13, (2, 4): cell24})
                triple = triple_value_set(input, ds)
                if triple.nontrivial and (triple.strictly_defined or not require_strict):
                    report = MasseyReport(
                        order=3,
                        supports=(J1, J2, J3),
                        reduced_degrees=(0, 0, 0),
                        status=STATUS_DEFINED_STRICT
                        if triple.strictly_defined
                        else STATUS_DEFINED,
                        conditions=strict_conditions_check(input),
                        value=triple.representative,
                        triple=triple,
                        failure=None,
                    )
                    return TripleWitness((J1, J2, J3), (0, 0, 0), report)
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


def verify_family_massey(n, s, capacity=FAMILY_ORDER_CAPACITY):
    """Certify the n-fold product on K(n,s): strictly defined, value nonzero,
    with every proper consecutive sub-product strictly zero.

    Raises VerificationError if any certified fact fails to hold.
    """
    if n > capacity:
        raise CapacityError("family-order", f"n = {n} exceeds capacity {capacity}")
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

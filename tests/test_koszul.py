import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle import koszul
from moment_angle.complexes import SimplicialComplex, _mask_of
from moment_angle.errors import (
    AmbientMismatchError,
    CapacityError,
    InputError,
    NotACocycleError,
)
from moment_angle.families import polygon_nerve
from moment_angle.hochster import multigraded_betti
from moment_angle.koszul import (
    ComponentBasis,
    KoszulCochain,
    cohomology_class,
    component_basis,
)
from moment_angle.graphs import Graph, formality_classify
from moment_angle.massey import family_massey_input, verify_family_massey
from moment_angle.rational_linalg import Rational, SparseMatrix
from moment_angle.real_cochains import RealCochain

from conftest import (
    CORPUS_GRAPHS,
    component_monomials,
    dense_complexes,
    differential_matrix,
    homogeneous_pieces,
    is_coboundary,
    koszul_bigraded_ranks,
    mask_pair,
    oracle_class_vector,
    oracle_classes,
    random_complex,
    random_koszul_cochain,
    small_complexes,
)


def mono(K, u, v, c=1):
    return KoszulCochain.monomial(K, u, v, c)


def test_component_basis_hexagon_pair():
    hexn = polygon_nerve(6)
    comp = component_basis(hexn, (1, 4), 3)
    assert component_monomials(comp) == [((1,), (4,)), ((4,), (1,))]
    comp2 = component_basis(hexn, (1, 4), 2)
    assert component_monomials(comp2) == [((1, 4), ())]
    assert component_monomials(component_basis(hexn, (1, 4), 4)) == []  # {1,4} not a face
    assert comp.coordinates(mono(hexn, (4,), (1,), 3) + mono(hexn, (1,), (4,))) == (1, 3)
    # a term is placed only when its v-part is a basis face T and its u-part is J - T
    for u, v in [((1, 2), (4,)), ((), (4,)), ((1, 4), ()), ((1,), (5,))]:
        with pytest.raises(InputError, match="outside component"):
            comp.coordinates(mono(hexn, u, v))


def test_component_basis_empty_multidegree():
    K = SimplicialComplex(3, [(1, 2)])
    comp = component_basis(K, (), 0)
    assert component_monomials(comp) == [((), ())]
    assert comp.cohomology_dimension() == 1


def test_differential_examples():
    K = SimplicialComplex(2, [])
    assert mono(K, (1,), ()).differential() == mono(K, (), (1,))
    d12 = mono(K, (1, 2), ()).differential()
    assert d12 == mono(K, (2,), (1,)) + mono(K, (1,), (2,), -1)
    hexn = polygon_nerve(6)
    d14 = mono(hexn, (1, 4), ()).differential()
    assert d14 == mono(hexn, (4,), (1,)) + mono(hexn, (1,), (4,), -1)


def test_differential_drops_nonfaces():
    hexn = polygon_nerve(6)
    # tau u {i} must be a face: u1 v3 would map onto v1 v3 with {1,3} not a face
    assert mono(hexn, (1,), (3,)).differential().is_zero()


def test_multiply_relations():
    K = SimplicialComplex(2, [])
    assert (mono(K, (1,), ()) * mono(K, (), (1,))).is_zero()  # u1 v1 = 0
    assert (mono(K, (), (1,)) * mono(K, (), (1,))).is_zero()  # v1^2 = 0
    assert (mono(K, (1,), ()) * mono(K, (1,), ())).is_zero()  # u1^2 = 0


def test_multiply_shuffle_signs():
    hexn = polygon_nerve(6)
    a = mono(hexn, (4,), (1,)) * mono(hexn, (5,), (2,))
    assert a == mono(hexn, (4, 5), (1, 2))
    b = mono(hexn, (4,), (1,)) * mono(hexn, (3,), (2,))
    assert b == mono(hexn, (3, 4), (1, 2), -1)


def test_multiply_kills_nonface_v_union():
    hexn = polygon_nerve(6)
    # v-parts {1} and {3} merge to the non-face {1,3}
    assert (mono(hexn, (4,), (1,)) * mono(hexn, (6,), (3,))).is_zero()


def test_cochain_coefficients():
    K = polygon_nerve(6)
    half = Rational(-1, 2)
    u1v4, u1u4, v2, u4v1 = (
        mask_pair(pair) for pair in [((1,), (4,)), ((1, 4), ()), ((), (2,)), ((4,), (1,))]
    )
    assert (u1v4, u1u4, v2, u4v1) == ((0b1, 0b1000), (0b1001, 0), (0, 0b10), (0b1000, 0b1))
    c = KoszulCochain(K, {u1v4: half, u1u4: 3, v2: 0, u4v1: True})
    # ints and bools become Rationals, zeros are dropped, a Rational is kept as is
    assert set(c.terms) == {u1v4, u1u4, u4v1}
    assert all(type(x) is Rational for x in c.terms.values())
    assert c.terms[u1v4] is half
    assert c.terms[u4v1] == 1
    assert repr(c) == "-1/2*u1v4 + 3*u1u4 + u4v1"
    assert repr(KoszulCochain(K, {mask_pair(((1,), ())): Rational(0)})) == "0"
    assert repr(KoszulCochain.unit(K)) == "1"
    assert KoszulCochain.unit(K).terms == {(0, 0): 1}
    r = RealCochain(K, {mask_pair(((1,), (2,))): -1, (0, 0): Rational(2, 3)})
    assert repr(r) == "2/3*1 + -1*u1t2"


@pytest.mark.parametrize("model", [KoszulCochain, RealCochain], ids=["koszul", "real"])
def test_repr_orders_terms_by_vertex_tuples_not_masks(model):
    # u1u3 (mask 0b101) and u1u10 (mask 0b1000000001) sort before u2 (mask 0b10)
    K = SimplicialComplex.full_simplex(10)
    x = model.LETTER

    def gen(u, other=()):
        return model.monomial(K, u, other)

    assert repr(gen((2,)) + gen((1, 3))) == "u1u3 + u2"
    assert repr(gen((2,)) + gen((1, 10))) == "u1u10 + u2"
    assert repr(gen((), (2,)) + gen((), (1, 3))) == f"{x}1{x}3 + {x}2"
    assert repr(gen((), (2,)) + gen((), (1, 10))) == f"{x}1{x}10 + {x}2"
    assert repr(gen((1,), (3,)).scaled(3) + gen((1,), (2, 10))) == f"u1{x}2{x}10 + 3*u1{x}3"


def test_ambient_mismatch():
    K1 = SimplicialComplex(2, [])
    K2 = SimplicialComplex(2, [(1, 2)])
    with pytest.raises(AmbientMismatchError):
        mono(K1, (1,), ()) * mono(K2, (1,), ())


def check_component_build(K, J, degree):
    """The mask-built basis and matrix of (J, degree) against the tuple-built ones."""
    comp = component_basis(K, J, degree)
    lower = component_basis(K, J, degree - 1)
    monomials = component_monomials(comp)
    assert monomials == sorted(monomials)
    faces = [T for T in K.faces(degree - len(J)) if set(T) <= set(J)]
    assert monomials == sorted((tuple(sorted(set(J) - set(T))), T) for T in faces)
    assert len(comp) == len(faces)
    rows = tuple(range(1, len(comp) + 1))
    assert comp.coordinates(comp.cochain_from_coordinates(rows)) == rows
    index = {mono: i for i, mono in enumerate(monomials)}
    slow = differential_matrix(KoszulCochain, K, component_monomials(lower), index)
    fast = comp.matrix_from_below()
    assert (fast.nrows, fast.ncols, fast.entries) == (slow.nrows, slow.ncols, slow.entries)


@settings(max_examples=30, deadline=None)
@given(small_complexes())
def test_matrix_to_above_is_the_differential_of_each_monomial(K):
    for size in range(K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size - 1, 2 * size + 1):
                comp = component_basis(K, J, degree)
                above = component_basis(K, J, degree + 1)
                A = comp.matrix_to_above()
                assert (A.nrows, A.ncols) == (len(above), len(comp))
                for col, m in enumerate(component_monomials(comp)):
                    image = KoszulCochain(K, {mask_pair(m): 1}).differential()
                    column = tuple(A.entry(r, col) for r in range(A.nrows))
                    assert column == above.coordinates(image)
                check_component_build(K, J, degree)
            check_component_build(K, J, 2 * size + 1)


def test_mask_build_matches_tuple_build_on_wide_masks():
    # the 16-vertex complex of K(4, 3): every degree of each union of consecutive supports
    inp = family_massey_input(4, 3)
    assert inp.complex.m == 16
    supports = [c.support for c in inp.classes]
    for start, end in itertools.combinations(range(len(supports) + 1), 2):
        J = tuple(sorted(set().union(*supports[start:end])))
        for degree in range(len(J) - 1, 2 * len(J) + 2):
            check_component_build(inp.complex, J, degree)


def test_cohomology_class_hexagon_generator():
    hexn = polygon_nerve(6)
    coords = cohomology_class(mono(hexn, (4,), (1,)))
    assert coords == (1,)
    # a coboundary has the zero class
    boundary = mono(hexn, (1, 4), ()).differential()
    assert cohomology_class(boundary) == (0,)


def test_cohomology_class_rejects_noncocycles():
    K = SimplicialComplex(2, [])
    with pytest.raises(NotACocycleError):
        cohomology_class(mono(K, (1,), ()))
    with pytest.raises(NotACocycleError):
        is_coboundary(component_basis(K, (1,), 1), mono(K, (1,), ()))


@settings(max_examples=30, deadline=None)
@given(small_complexes())
def test_coboundary_test_reads_the_class_vector(K):
    # every canonical cocycle of every component: a coboundary exactly when its class is zero
    for size in range(K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size, 2 * size + 1):
                comp = component_basis(K, J, degree)
                for vec in comp.cocycle_basis():
                    z = comp.cochain_from_coordinates(vec)
                    assert is_coboundary(comp, z) == (not any(comp.class_vector(z)))


def test_top_class_of_four_cycle():
    K = polygon_nerve(4)
    product = mono(K, (3,), (1,)) * mono(K, (4,), (2,))
    coords = cohomology_class(product)
    assert len(coords) == 1 and coords[0] != 0


def test_top_class_reads_one_of_its_cocycles(monkeypatch):
    # the value component of the (4, 3) family product has 2,366 canonical cocycles
    # and one class; the basis scan builds cocycles lazily and stops at the first
    inp = family_massey_input(4, 3)
    J, degree = inp.window_support(1, 4), inp.window_total_degree(1, 4)
    comp = ComponentBasis(inp.complex, _mask_of(J, inp.complex.m), degree)  # not memoized
    kernel, built = SparseMatrix.kernel, []

    def counted(self):
        built.append(0)
        for vec in kernel(self):
            built[-1] += 1
            yield vec

    monkeypatch.setattr(SparseMatrix, "kernel", counted)
    assert len(comp.cohomology_basis()) == comp.cohomology_dimension() == 1
    above = comp.matrix_to_above()
    assert above.ncols - above.rank() == 2366
    assert built == [1]
    assert comp.cohomology_basis() == component_basis(inp.complex, J, degree).cohomology_basis()


def components(K):
    """Every component (J, t) of K with J nonempty, as built by ``component_basis``."""
    for size in range(1, K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size, 2 * size + 1):
                yield component_basis(K, J, degree)


@settings(max_examples=30, deadline=None)
@given(dense_complexes(), st.integers(0, 2**32))
def test_classes_read_on_the_core_match_the_classes_read_on_J(K, seed):
    # the core-read basis and class vectors against J's own residuals and dimension,
    # on cocycles that are a combination of basis classes plus a coboundary
    rng = random.Random(seed)
    for comp in components(K):
        basis, _ = oracle_classes(comp)
        assert comp.cohomology_basis() == basis
        below = comp._neighbor(-1)
        for _ in range(2):
            a = [rng.randint(-2, 2) for _ in basis]
            z = below.cochain_from_coordinates([rng.randint(-2, 2) for _ in range(len(below))])
            z = z.differential()
            for coeff, vec in zip(a, basis):
                z = z + comp.cochain_from_coordinates(vec).scaled(coeff)
            assert comp.class_vector(z) == oracle_class_vector(comp, z) == tuple(a)


@settings(max_examples=30, deadline=None)
@given(dense_complexes(), st.integers(0, 2**32))
def test_contraction_onto_the_core_is_a_chain_map_up_to_sign(K, seed):
    # d iota = (-1)^|R| iota d from (J, t - 1) to the core component (J - R, t - |R|)
    rng = random.Random(seed)
    for comp in components(K):
        core, R = comp._core()
        if not R or core is None:
            continue
        below = comp._neighbor(-1)
        assert below._core() == (core._neighbor(-1), R)
        y = [rng.randint(-2, 2) for _ in range(len(below))]
        left = core._neighbor(-1).cochain_from_coordinates(below._contract(y)).differential()
        dc = below.cochain_from_coordinates(y).differential()
        right = core.cochain_from_coordinates(comp._contract(comp.coordinates(dc)))
        assert left == (-right if R.bit_count() & 1 else right)


def fresh_components(monkeypatch):
    """Route ``component_basis`` through a new memo for one test; the components it builds, by key."""
    built = {}

    def build(K, J, degree):
        if (K, J, degree) not in built:
            built[K, J, degree] = ComponentBasis(K, J, degree)
        return built[K, J, degree]

    monkeypatch.setattr(koszul, "_component_cached", build)
    return built


@pytest.mark.parametrize("cached", [False, True])
def test_component_basis_refuses_a_bool_vertex_in_either_cache_order(monkeypatch, cached):
    # True == 1 and hashes alike, so a memo lookup before the vertex check would hand
    # back the cached (1, 3) component
    built = fresh_components(monkeypatch)
    K = polygon_nerve(5)
    if cached:
        component_basis(K, [1, 3], 3)
        assert (K, 0b101, 3) in built
    with pytest.raises(InputError):
        component_basis(K, [True, 3], 3)
    with pytest.raises(InputError):
        component_basis(K, [0, 3], 3)


def test_neighbours_and_cores_skip_the_public_vertex_check(monkeypatch):
    # a component's neighbours and its core are keyed by its own mask, so they go to
    # the memo directly; only the first component passes component_basis
    built = fresh_components(monkeypatch)
    K = family_massey_input(3, 1).complex
    comp = component_basis(K, range(1, 7), 8)
    monkeypatch.setattr(koszul, "component_basis", None)  # any call would fail
    assert comp._core()[1]  # the core is a smaller component
    assert len(comp.cohomology_basis()) == comp.cohomology_dimension() == 1
    assert (K, comp._core()[0]._mask, 8 - comp._core()[1].bit_count()) in built
    assert {(K, 0b111111, t) for t in (7, 9)} <= set(built)


def test_family_value_component_is_never_eliminated_on_J(monkeypatch):
    # the value of the (4, 2) product lives on all 12 vertices; its classes are read on
    # the core, so its largest matrix, 403 x 529, is never built
    built = fresh_components(monkeypatch)
    verify_family_massey(4, 2)
    inp = family_massey_input(4, 2)
    value = built[inp.complex, (1 << 12) - 1, inp.window_total_degree(1, 4)]
    assert "hbasis" in value._cache
    assert "from_below" not in value._cache
    assert value._core()[1]


def test_window_with_a_one_vertex_core_builds_no_core_component(monkeypatch):
    # C4 formality reads shift-product windows whose K_J strong-collapses onto one vertex
    built = fresh_components(monkeypatch)
    formality_classify(Graph.from_edges(**CORPUS_GRAPHS["c4"]))
    read = [comp for comp in built.values() if "core" in comp._cache]
    cones = [comp for comp in read if comp._core()[0] is None]
    assert cones
    singletons = {J for _, J, _ in built if J.bit_count() == 1}
    for comp in cones:
        assert comp.cohomology_basis() == ()
        core = comp._mask ^ comp._core()[1]
        assert core.bit_count() == 1 and core not in singletons


def test_d_squared_zero():
    rng = random.Random(31)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        c = random_koszul_cochain(rng, K)
        assert c.differential().differential().is_zero()


def test_graded_commutativity():
    rng = random.Random(37)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        x = random_koszul_cochain(rng, K)
        y = random_koszul_cochain(rng, K)
        for xd in homogeneous_pieces(x):
            for yd in homogeneous_pieces(y):
                sign = (-1) ** (xd.degree() * yd.degree())
                assert (xd * yd - (yd * xd).scaled(sign)).is_zero()


def test_leibniz():
    rng = random.Random(41)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 6))
        x = random_koszul_cochain(rng, K)
        y = random_koszul_cochain(rng, K)
        for xd in homogeneous_pieces(x):
            lhs = (xd * y).differential()
            rhs = xd.differential() * y + xd.scaled((-1) ** xd.degree()) * y.differential()
            assert (lhs - rhs).is_zero()


def test_component_dimension_matches_hochster():
    # the central cross-oracle: per-component cohomology equals the
    # multigraded Betti number computed from simplicial cochains
    rng = random.Random(43)
    for _ in range(12):
        K = random_complex(rng, rng.randint(1, 5))
        for size in range(K.m + 1):
            for J in itertools.combinations(range(1, K.m + 1), size):
                for t in range(size, 2 * size + 1):
                    dim = component_basis(K, J, t).cohomology_dimension()
                    i = 2 * size - t
                    assert dim == multigraded_betti(K, i, J)


def test_bigraded_ranks_match_hochster_table():
    from moment_angle.hochster import bigraded_betti_table

    rng = random.Random(47)
    for _ in range(6):
        K = random_complex(rng, rng.randint(1, 5))
        table = bigraded_betti_table(K)
        assert koszul_bigraded_ranks(K) == table.bigraded


def test_koszul_table_capacity():
    big = SimplicialComplex(13, [(1, 2)])
    with pytest.raises(CapacityError) as err:
        koszul_bigraded_ranks(big)
    assert err.value.guard == "koszul-table"
    assert "capacity is m <= 12" in str(err.value)


def test_join_product_compatibility():
    # generators on disjoint supports multiply to a generator exactly when
    # the union's induced subcomplex is their join (four-cycle top class)
    K = polygon_nerve(4)
    prod = mono(K, (3,), (1,)) * mono(K, (4,), (2,))
    assert not prod.is_zero()
    comp = component_basis(K, (1, 2, 3, 4), 6)
    assert comp.cohomology_dimension() == 1
    assert any(c != 0 for c in comp.class_vector(prod))


def test_monomial_constructor_validation():
    hexn = polygon_nerve(6)
    with pytest.raises(InputError):
        KoszulCochain.monomial(hexn, (1,), (1,))
    with pytest.raises(InputError):
        KoszulCochain.monomial(hexn, (2,), (1, 3))  # v-part must be a face
    # u_i u_i = 0 and v_i v_i = 0: a repeated vertex names no normal-form monomial;
    # nor does a vertex outside 1..m
    for u, v in [((1,), (2, 2)), ((1, 1), ()), ((3, 1, 3), (2,)), ((7,), ()), ((), (True,))]:
        with pytest.raises(InputError):
            KoszulCochain.monomial(hexn, u, v)

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex
from moment_angle.errors import AmbientMismatchError, CapacityError, InputError
from moment_angle.families import polygon_nerve
from moment_angle.graphs import Graph, associahedron_nerve
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.rational_linalg import reduced_cohomology_ranks
from moment_angle.real_cochains import (
    RealCochain,
    _addable_masks,
    _degree_basis,
    _differential_columns,
    doubling_cochain,
    doubling_complex,
    real_cohomology_ranks,
)

from conftest import (
    dense_complexes,
    differential_matrix,
    homogeneous_pieces,
    random_complex,
    random_real_cochain,
    small_complexes,
    tuple_pair,
)


def mono(K, u, t, c=1):
    return RealCochain.monomial(K, u, t, c)


def test_defining_relations():
    K = SimplicialComplex(2, [])
    u1, t1 = mono(K, (1,), ()), mono(K, (), (1,))
    assert u1 * t1 == u1
    assert (t1 * u1).is_zero()
    assert t1 * t1 == t1
    t2 = mono(K, (), (2,))
    u2 = mono(K, (2,), ())
    assert u1 * t2 == t2 * u1
    assert t1 * t2 == t2 * t1
    assert (u1 * u1).is_zero()
    assert u1 * u2 == (u2 * u1).scaled(-1)


def test_the_two_models_do_not_mix():
    K = SimplicialComplex(2, [])
    with pytest.raises(AmbientMismatchError):
        KoszulCochain.unit(K) + RealCochain.unit(K)
    with pytest.raises(AmbientMismatchError):
        RealCochain.unit(K) * KoszulCochain.unit(K)
    assert KoszulCochain.zero(K) != RealCochain.zero(K)
    assert KoszulCochain.unit(K) != RealCochain.unit(K)
    assert RealCochain.unit(K) == RealCochain.monomial(K, (), ())


def test_stanley_reisner_relation_in_u():
    S0 = SimplicialComplex(2, [(1, 2)])
    assert (mono(S0, (1,), ()) * mono(S0, (2,), ())).is_zero()


def test_differential_examples():
    K = SimplicialComplex(2, [])
    assert mono(K, (), (1,)).differential() == mono(K, (1,), ())
    assert mono(K, (1,), (2,)).differential() == mono(K, (1, 2), (), -1)
    assert mono(K, (), (1, 2)).differential() == mono(K, (1,), (2,)) + mono(K, (2,), (1,))
    S0 = SimplicialComplex(2, [(1, 2)])
    assert mono(S0, (1,), (2,)).differential().is_zero()


def test_monomial_validation():
    S0 = SimplicialComplex(2, [(1, 2)])
    with pytest.raises(InputError):
        RealCochain.monomial(S0, (1, 2), ())  # u-part must be a face
    with pytest.raises(InputError):
        RealCochain.monomial(S0, (1,), (1,))
    # t1 t1 = t1 and u1 u1 = 0: a repeated vertex names no normal-form monomial;
    # nor does a vertex outside 1..m
    K = SimplicialComplex(2, [])
    bad = [((), (1, 1)), ((1, 1), ()), ((1,), (2, 2)), ((2, 1, 2), ()), ((), (3,)), ((0,), ())]
    for u, t in bad:
        with pytest.raises(InputError):
            RealCochain.monomial(K, u, t)


def test_associativity_of_generator_words():
    # confluence of the rewriting: all 3-letter generator products associate
    K = SimplicialComplex(3, [(1, 2, 3)])
    gens = [mono(K, (v,), ()) for v in (1, 2, 3)] + [mono(K, (), (v,)) for v in (1, 2, 3)]
    for x, y, z in itertools.product(gens, repeat=3):
        assert ((x * y) * z - x * (y * z)).is_zero()


def test_d_squared_and_leibniz():
    rng = random.Random(53)
    for _ in range(40):
        K = random_complex(rng, rng.randint(1, 5))
        x = random_real_cochain(rng, K)
        y = random_real_cochain(rng, K)
        assert x.differential().differential().is_zero()
        for xd in homogeneous_pieces(x):
            lhs = (xd * y).differential()
            rhs = xd.differential() * y + xd.scaled((-1) ** xd.degree()) * y.differential()
            assert (lhs - rhs).is_zero()


def test_rank_examples():
    assert real_cohomology_ranks(SimplicialComplex(2, [(1, 2)])) == (1, 1)
    assert real_cohomology_ranks(SimplicialComplex(2, [])) == (1, 0, 0)
    assert real_cohomology_ranks(polygon_nerve(4)) == (1, 2, 1)


def test_additive_oracle():
    # rank H^p of the model equals the sum over subsets J of reduced
    # H^{p-1}(K_J), with the {emptyset} term giving rank 1 in degree 0
    rng = random.Random(59)
    for _ in range(15):
        K = random_complex(rng, rng.randint(1, 5))
        ranks = real_cohomology_ranks(K)
        expected = {}
        for size in range(K.m + 1):
            for J in itertools.combinations(range(1, K.m + 1), size):
                for d, r in reduced_cohomology_ranks(K.induced(J)).items():
                    if r:
                        expected[d + 1] = expected.get(d + 1, 0) + r
        for p, r in enumerate(ranks):
            assert expected.get(p, 0) == r
        assert all(p < len(ranks) for p in expected)


def _tuple_basis(K, p):
    """Degree p as the sorted normal-form monomials u_S t_T, as tuple pairs (S, T)."""
    monos = []
    for u in K.faces(p):
        others = [v for v in range(1, K.m + 1) if v not in u]
        for r in range(len(others) + 1):
            monos.extend((u, t) for t in itertools.combinations(others, r))
    return sorted(monos)


def check_mask_build(K):
    """The mask bases and differential columns of every degree against the tuple-built matrices."""
    p = 0
    lower = _degree_basis(K, 0)
    while lower:
        upper = _degree_basis(K, p + 1)
        slow_lower, slow_upper = _tuple_basis(K, p), _tuple_basis(K, p + 1)
        assert [tuple_pair(pair) for pair in lower] == slow_lower
        index = {mono: i for i, mono in enumerate(slow_upper)}
        slow = differential_matrix(RealCochain, K, slow_lower, index)
        columns = _differential_columns(K, lower, upper)
        fast = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
        assert (len(upper), len(columns), fast) == (slow.nrows, slow.ncols, slow.entries)
        p, lower = p + 1, upper


@settings(max_examples=40, deadline=None)
@given(small_complexes(min_m=1, max_m=7))
def test_mask_build_matches_tuple_build(K):
    check_mask_build(K)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=7), dense_complexes(max_m=7)))
def test_addable_masks_match_face_tests(K):
    # the column builder looks up only the vertices i with S + i a face,
    # read off the level above; each face test here is the slow side
    for p in range(K.m + 1):
        addable = _addable_masks(K.face_masks(p + 1))
        assert set(addable) <= set(K.face_masks(p))
        for S in K.face_masks(p):
            outside = (1 << i for i in range(K.m) if not S >> i & 1)
            assert addable.get(S, 0) == sum(i for i in outside if K.is_face_mask(S | i))


def test_mask_build_matches_tuple_build_on_p4_nerve():
    K = associahedron_nerve(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
    assert K.m == 9
    check_mask_build(K)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        real_cohomology_ranks(SimplicialComplex(10, [(1, 2)]))


def test_doubling_map_is_multiplicative_chain_map():
    rng = random.Random(61)
    for _ in range(12):
        K = random_complex(rng, rng.randint(1, 3))
        D = doubling_complex(K)
        x = random_koszul(rng, K)
        y = random_koszul(rng, K)
        fx, fy = doubling_cochain(x, D), doubling_cochain(y, D)
        assert (doubling_cochain(x * y, D) - fx * fy).is_zero()
        assert (doubling_cochain(x.differential(), D) - fx.differential()).is_zero()


def random_koszul(rng, K):
    from conftest import random_koszul_cochain

    return random_koszul_cochain(rng, K)


def test_doubling_ranks_match_moment_angle_model():
    for K in [
        SimplicialComplex(1, []),
        SimplicialComplex(2, [(1, 2)]),
        SimplicialComplex(2, []),
        SimplicialComplex(3, [(1, 2, 3)]),
        SimplicialComplex(3, [(1, 2), (1, 3)]),
        polygon_nerve(4),
    ]:
        doubled_ranks = real_cohomology_ranks(doubling_complex(K))
        koszul_ranks = {}
        for size in range(K.m + 1):
            for J in itertools.combinations(range(1, K.m + 1), size):
                for t in range(size, 2 * size + 1):
                    d = component_basis(K, J, t).cohomology_dimension()
                    if d:
                        koszul_ranks[t] = koszul_ranks.get(t, 0) + d
        for p, r in enumerate(doubled_ranks):
            assert koszul_ranks.get(p, 0) == r
        assert all(p < len(doubled_ranks) for p in koszul_ranks)


def test_doubling_multiplication_table():
    # class-level products correspond under the doubling map
    K = polygon_nerve(4)
    D = doubling_complex(K)
    x = KoszulCochain.monomial(K, (3,), (1,))
    y = KoszulCochain.monomial(K, (4,), (2,))
    fx, fy = doubling_cochain(x, D), doubling_cochain(y, D)
    assert not (fx * fy).is_zero()
    assert fx.differential().is_zero() and fy.differential().is_zero()
    # the product class is nonzero: it is not a differential image in the
    # top real degree (degree 6 of 8 vertices has trivial image to compare:
    # check by pairing against the additive structure instead)
    product = fx * fy
    assert doubling_cochain(x * y, D) == product

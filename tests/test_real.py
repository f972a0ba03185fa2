import itertools
import random

import pytest

from moment_angle.complexes import SimplicialComplex
from moment_angle.errors import AmbientMismatchError, CapacityError, InputError
from moment_angle.families import polygon_nerve
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.rational_linalg import reduced_cohomology_ranks
from moment_angle.real_cochains import (
    RealCochain,
    doubling_cochain,
    doubling_complex,
    real_cohomology_ranks,
)

from conftest import homogeneous_pieces, random_complex, random_real_cochain


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
        for xd in homogeneous_pieces(x, kind="real"):
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

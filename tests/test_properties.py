"""Cross-cutting property suites, runnable standalone.

Each test here re-checks one structural law end to end: the differential
matrices of both cochain models agree with the Leibniz rule, the mask
products and differentials agree with the tuple rules of conftest, differentials
square to zero, Leibniz and graded commutativity hold, defining systems
satisfy their relations exactly, the multiwedge respects joins, and greedy
choices do not move strictly defined values.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex
from moment_angle.families import FamilySpec, family_complex, polygon_nerve
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.massey import (
    CellFailure,
    build_defining_system,
    family_massey_input,
    massey_value,
)
from moment_angle.multiwedge import j_construction
from moment_angle.rational_linalg import coboundary_matrix
from moment_angle.real_cochains import RealCochain

from conftest import (
    differential_matrix,
    homogeneous_pieces,
    mask_pair,
    random_complex,
    random_koszul_cochain,
    random_real_cochain,
    small_complexes,
    tuple_differential,
    tuple_product,
    tuple_terms,
)


def test_simplicial_delta_squared_zero():
    rng = random.Random(101)
    for _ in range(30):
        K = random_complex(rng, rng.randint(1, 6))
        for d in range(-1, K.dim):
            assert coboundary_matrix(K, d).matmul(coboundary_matrix(K, d + 1)).is_zero()


def _generator_word(model, K, mono):
    """The tuple pair mono = (S, T) as a word of generators (x, dx, degree x), with dx
    hard-coded here: du_i = v_i, dv_i = 0 in the Koszul model; du_i = 0, dt_i = u_i
    in the real one."""
    def gen(u, other=()):
        return model.monomial(K, u, other)

    zero = model.zero(K)
    first, second = mono
    if model is KoszulCochain:
        return [(gen((i,)), gen((), (i,)), 1) for i in first] + [
            (gen((), (i,)), zero, 2) for i in second
        ]
    return [(gen((i,)), zero, 1) for i in first] + [
        (gen((), (i,)), gen((i,)), 0) for i in second
    ]


def _leibniz_differential(model, K, word):
    """d(x_1 ... x_n) = sum over k of (-1)^(deg x_1 + ... + deg x_{k-1}) x_1 ... dx_k ... x_n,
    every product taken by the model's own multiplication."""
    out = model.zero(K)
    for k, (_, dx, _) in enumerate(word):
        term = model.unit(K)
        for j, (x, _, _) in enumerate(word):
            term = term * (dx if j == k else x)
        out = out + term.scaled((-1) ** sum(deg for _, _, deg in word[:k]))
    return out


@pytest.mark.parametrize("model", [KoszulCochain, RealCochain], ids=["koszul", "real"])
def test_differential_matrix_matches_leibniz_expansion(model):
    rng = random.Random(137)
    for _ in range(12):
        K = random_complex(rng, rng.randint(1, 6))
        # every normal-form monomial: each vertex in neither part, the first or the second
        basis = []
        for parts in itertools.product((0, 1, 2), repeat=K.m):
            first = tuple(v for v, p in zip(range(1, K.m + 1), parts) if p == 1)
            second = tuple(v for v, p in zip(range(1, K.m + 1), parts) if p == 2)
            if K.is_face(second if model is KoszulCochain else first):
                basis.append((first, second))
        index = {mono: i for i, mono in enumerate(basis)}
        D = differential_matrix(model, K, basis, index)
        columns = [{} for _ in basis]
        for (r, c), sign in D.entries.items():
            columns[c][mask_pair(basis[r])] = sign
        for col, mono in enumerate(basis):
            word = _generator_word(model, K, mono)
            product = model.unit(K)
            for x, _, _ in word:
                product = product * x
            assert product.terms == {mask_pair(mono): 1}
            assert _leibniz_differential(model, K, word).terms == columns[col]


@settings(max_examples=60, deadline=None)
@given(small_complexes(min_m=1, max_m=6), st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("model", [KoszulCochain, RealCochain], ids=["koszul", "real"])
def test_mask_arithmetic_matches_tuple_oracle(model, K, seed):
    # the mask product and differential against the tuple rules of conftest, term for term
    rng = random.Random(seed)
    draw = random_koszul_cochain if model is KoszulCochain else random_real_cochain
    x, y = draw(rng, K, terms=4), draw(rng, K, terms=4)
    x_terms, y_terms = tuple_terms(x), tuple_terms(y)
    assert tuple_terms(x * y) == tuple_product(model, K, x_terms, y_terms)
    assert tuple_terms(y * x) == tuple_product(model, K, y_terms, x_terms)
    assert tuple_terms(x.differential()) == tuple_differential(model, K, x_terms)


def test_koszul_differential_squares_to_zero():
    rng = random.Random(103)
    for _ in range(50):
        K = random_complex(rng, rng.randint(1, 6))
        c = random_koszul_cochain(rng, K, terms=4)
        assert c.differential().differential().is_zero()


def test_real_differential_squares_to_zero():
    rng = random.Random(107)
    for _ in range(50):
        K = random_complex(rng, rng.randint(1, 5))
        c = random_real_cochain(rng, K, terms=4)
        assert c.differential().differential().is_zero()


def test_leibniz_both_models():
    rng = random.Random(109)
    for _ in range(30):
        K = random_complex(rng, rng.randint(1, 5))
        x, y = random_koszul_cochain(rng, K), random_koszul_cochain(rng, K)
        for xd in homogeneous_pieces(x):
            lhs = (xd * y).differential()
            rhs = xd.differential() * y + xd.scaled((-1) ** xd.degree()) * y.differential()
            assert (lhs - rhs).is_zero()
        a, b = random_real_cochain(rng, K), random_real_cochain(rng, K)
        for ad in homogeneous_pieces(a):
            lhs = (ad * b).differential()
            rhs = ad.differential() * b + ad.scaled((-1) ** ad.degree()) * b.differential()
            assert (lhs - rhs).is_zero()


def test_graded_commutativity():
    rng = random.Random(113)
    for _ in range(30):
        K = random_complex(rng, rng.randint(1, 6))
        x, y = random_koszul_cochain(rng, K), random_koszul_cochain(rng, K)
        for xd in homogeneous_pieces(x):
            for yd in homogeneous_pieces(y):
                sign = (-1) ** (xd.degree() * yd.degree())
                assert (xd * yd - (yd * xd).scaled(sign)).is_zero()


def test_defining_system_residuals():
    hexn = polygon_nerve(6)
    from moment_angle.koszul import KoszulCochain
    from moment_angle.massey import MasseyClassInput, MasseyInput

    classes = [
        MasseyClassInput((j, j + 3), 0, KoszulCochain.monomial(hexn, (j + 3,), (j,)))
        for j in (1, 2, 3)
    ]
    ds = build_defining_system(MasseyInput(hexn, classes))
    assert all(res.is_zero() for res in ds.residuals().values())
    for n, s in [(3, 1), (4, 1), (3, 2)]:
        ds = build_defining_system(family_massey_input(n, s))
        assert all(res.is_zero() for res in ds.residuals().values())


def test_join_multiwedge_compatibility():
    rng = random.Random(127)
    for _ in range(20):
        K1 = random_complex(rng, rng.randint(1, 4))
        K2 = random_complex(rng, rng.randint(1, 4))
        J1 = tuple(rng.randint(1, 2) for _ in range(K1.m))
        J2 = tuple(rng.randint(1, 2) for _ in range(K2.m))
        assert j_construction(K1.join(K2), J1 + J2) == j_construction(K1, J1).join(
            j_construction(K2, J2)
        )


def test_greedy_determinism_for_lemma_condition_inputs():
    rng = random.Random(131)
    for n, s in [(3, 1), (3, 2), (4, 1)]:
        inp = family_massey_input(n, s)
        base = massey_value(build_defining_system(inp))
        for _ in range(3):
            perturbations = {}
            for span in range(2, inp.k):
                for i in range(1, inp.k + 2 - span):
                    j = i + span
                    support = inp.window_support(i, j - 1)
                    degree = inp.window_total_degree(i, j - 1) - 1
                    comp = component_basis(inp.complex, support, degree)
                    coords = [0] * len(comp)
                    for vec in comp.cocycle_basis():
                        w = rng.randint(-1, 1)
                        coords = [c + w * v for c, v in zip(coords, vec)]
                    perturbations[(i, j)] = comp.cochain_from_coordinates(coords)
            ds = build_defining_system(inp, perturbations)
            assert not isinstance(ds, CellFailure)
            assert massey_value(ds).class_coordinates == base.class_coordinates

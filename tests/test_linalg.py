import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex
from moment_angle.errors import InputError
from moment_angle.families import polygon_nerve
from moment_angle.koszul import component_basis
from moment_angle.rational_linalg import (
    Rational,
    SparseMatrix,
    coboundary_matrix,
    nullspace_basis,
    reduced_cohomology_rank,
    reduced_cohomology_ranks,
    solve_linear,
)

from conftest import all_complexes, random_complex


def dense(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = Rational(v)
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0, entries)


def test_solve_identity():
    A = dense([[1, 0], [0, 1]])
    sol = solve_linear(A, [3, 5])
    assert sol.vector == (3, 5)
    assert sol.nullspace == ()


def test_solve_free_variable_zeroed():
    A = dense([[1, 1]])
    sol = solve_linear(A, [2])
    assert sol.vector == (2, 0)
    assert sol.free_columns == (1,)
    assert sol.nullspace == ((Rational(-1), Rational(1)),)


def test_solve_inconsistent():
    A = dense([[1], [1]])
    assert solve_linear(A, [1, 0]) is None


def test_solution_satisfies_system():
    rng = random.Random(1)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        A = dense(rows)
        x = [rng.randint(-3, 3) for _ in range(nc)]
        b = [sum(Rational(rows[r][c]) * x[c] for c in range(nc)) for r in range(nr)]
        sol = solve_linear(A, b)
        assert sol is not None
        residual = [
            sum(A.entry(r, c) * sol.vector[c] for c in range(nc)) - b[r]
            for r in range(nr)
        ]
        assert all(v == 0 for v in residual)
        for vec in sol.nullspace:
            image = [sum(A.entry(r, c) * vec[c] for c in range(nc)) for r in range(nr)]
            assert all(v == 0 for v in image)


def test_solve_determinism():
    A = dense([[2, 4, 1], [0, 0, 3], [2, 4, 4]])
    first = solve_linear(A, [1, 3, 4])
    for _ in range(5):
        again = solve_linear(A, [1, 3, 4])
        assert again == first


def test_nullspace_rank_count():
    A = dense([[1, 2, 3], [2, 4, 6]])
    assert A.rank() == 1
    assert len(nullspace_basis(A)) == 2


def test_coboundary_augmentation():
    S0 = SimplicialComplex(2, [(1, 2)])
    delta = coboundary_matrix(S0, -1)
    assert (delta.nrows, delta.ncols) == (1, 2)
    assert delta.entry(0, 0) == 1 and delta.entry(0, 1) == 1


def test_coboundary_four_cycle_rank():
    K = polygon_nerve(4)
    assert coboundary_matrix(K, 0).rank() == 3


def test_coboundary_triangle_rank():
    K = SimplicialComplex.full_simplex(3)
    assert coboundary_matrix(K, 0).rank() == 2


def test_coboundary_degree_range():
    K = polygon_nerve(4)
    with pytest.raises(InputError):
        coboundary_matrix(K, 2)
    with pytest.raises(InputError):
        coboundary_matrix(K, -2)


def test_delta_squared_zero_small():
    # rows index the domain, so the composite is M_d * M_{d+1}
    for m in range(0, 5):
        for K in all_complexes(m):
            for d in range(-1, K.dim):
                prod = coboundary_matrix(K, d).matmul(coboundary_matrix(K, d + 1))
                assert prod.is_zero()


def test_profiles():
    S0 = SimplicialComplex(2, [(1, 2)])
    assert reduced_cohomology_ranks(S0).ranks == (0, 1)
    kbar3 = SimplicialComplex(6, [(1, 4), (2, 5), (3, 6), (1, 5), (2, 6), (1, 6)])
    assert reduced_cohomology_ranks(kbar3).is_zero()
    assert reduced_cohomology_ranks(polygon_nerve(6)).ranks == (0, 0, 1)
    assert reduced_cohomology_ranks(SimplicialComplex.empty()).ranks == (1,)


def test_single_degree_matches_profile():
    rng = random.Random(9)
    for _ in range(25):
        K = random_complex(rng, rng.randint(1, 6))
        profile = reduced_cohomology_ranks(K)
        for d in range(-1, K.dim + 1):
            assert reduced_cohomology_rank(K, d) == profile.rank(d)
        assert reduced_cohomology_rank(K, K.dim + 3) == 0


def test_euler_characteristic():
    rng = random.Random(17)
    for _ in range(30):
        K = random_complex(rng, rng.randint(1, 6))
        counts = K.face_counts()
        chi_faces = sum((-1) ** k * n for k, n in enumerate(counts))
        profile = reduced_cohomology_ranks(K)
        chi_betti = sum((-1) ** (d + 1) * r for d, r in profile.items())
        assert chi_faces == chi_betti


def test_cones_are_acyclic():
    rng = random.Random(29)
    point = SimplicialComplex(1, [])
    for _ in range(20):
        K = random_complex(rng, rng.randint(1, 5))
        assert reduced_cohomology_ranks(K.join(point)).is_zero()


def test_prime_field_cross_check():
    from moment_angle.rational_linalg import rank_mod_p, reduced_cohomology_ranks_mod_p

    rng = random.Random(83)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        A = dense([[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)])
        for p in (2, 3):
            assert rank_mod_p(A, p) <= A.rank()
    # torsion-free examples: prime-field ranks agree with the rational ones
    for K in [polygon_nerve(5), polygon_nerve(6), SimplicialComplex.full_simplex(4),
              SimplicialComplex(4, [(1, 2, 3, 4)])]:
        rational = reduced_cohomology_ranks(K)
        for p in (2, 3):
            assert reduced_cohomology_ranks_mod_p(K, p) == rational
    with pytest.raises(InputError):
        rank_mod_p(dense([[1]]), 5)


def test_parallel_determinism():
    from concurrent.futures import ThreadPoolExecutor

    A = dense([[2, 4, 1, 0], [0, 0, 3, 1], [2, 4, 4, 1], [1, 2, 0, 0]])
    b = [1, 3, 4, 2]
    expected = solve_linear(A, b)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: solve_linear(A, b), range(32)))
    assert all(r == expected for r in results)


# -- fast path (pivot columns of one elimination) against a slow greedy scan --------


def reference_rank(columns):
    """Rank of a list of equal-length columns by dense elimination over Fraction."""
    rows = [list(map(Fraction, col)) for col in columns]  # rank(A) = rank(A^T)
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def greedy_keep(prefix, candidates):
    """Indices of the candidates kept, left to right, when they raise the rank."""
    kept = list(prefix)
    out = []
    for idx, col in enumerate(candidates):
        if reference_rank(kept + [col]) > reference_rank(kept):
            kept.append(col)
            out.append(idx)
    return out


small_matrices = st.integers(1, 5).flatmap(
    lambda nrows: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=nrows, max_size=nrows),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_pivot_columns_match_greedy_rank_scan(columns):
    A = SparseMatrix(len(columns[0]), 0).with_columns(columns)
    assert A.pivot_columns() == tuple(greedy_keep([], columns))
    assert A.rank() == reference_rank(columns)


@st.composite
def small_complexes(draw):
    m = draw(st.integers(3, 5))
    nonfaces = draw(
        st.lists(st.sets(st.integers(1, m), min_size=2, max_size=m), max_size=m + 2)
    )
    return SimplicialComplex(m, [tuple(sorted(f)) for f in nonfaces])


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_cohomology_basis_matches_greedy_scan(K):
    for size in range(1, K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size, 2 * size + 1):
                comp = component_basis(K, J, degree)
                B = comp.matrix_from_below()
                coboundaries = [[B.entry(r, c) for r in range(B.nrows)] for c in range(B.ncols)]
                cocycles = comp.cocycle_basis()
                kept = greedy_keep(coboundaries, cocycles)
                assert comp.cohomology_basis() == tuple(cocycles[i] for i in kept)
                assert len(kept) == comp.cohomology_dimension()

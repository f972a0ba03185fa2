import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment_angle import rational_linalg
from moment_angle.complexes import SimplicialComplex, _mask_of
from moment_angle.errors import InputError, NotACocycleError
from moment_angle.families import polygon_nerve
from moment_angle.hochster import bigraded_betti_table, multigraded_betti
from moment_angle.koszul import ComponentBasis, component_basis
from moment_angle.rational_linalg import (
    Rational,
    SparseMatrix,
    _coboundary_columns,
    _coboundary_pivots,
    coboundary_matrix,
    cohomology_ranks,
    greedy_span,
    nullspace_basis,
    rank_of_columns,
    reduced_cohomology_rank,
    reduced_cohomology_ranks,
    solve_linear,
)
from moment_angle.real_cochains import (
    _critical_cells,
    _differential_columns,
    _differential_pivots,
    real_cohomology_ranks,
)

from conftest import (
    all_complexes,
    corpus_nerve,
    degree_basis,
    dense_complexes,
    matrix_product,
    random_complex,
    rank_mod_p,
    reduced_cohomology_ranks_mod_p,
    small_complexes,
    union_find_component_count,
)


def dense(rows):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v:
                entries[(r, c)] = v
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


def test_coboundary_range_needs_no_dualization():
    # the range is read off the face levels: the 120-gon's maximal faces are never computed
    K = polygon_nerve(120)
    C = coboundary_matrix(K, 0)
    assert (C.nrows, C.ncols) == (120, 120)
    assert "maximal_faces" not in K._cache
    assert (coboundary_matrix(K, 1).nrows, coboundary_matrix(K, 1).ncols) == (120, 0)
    with pytest.raises(InputError):
        coboundary_matrix(K, 2)  # the 120-gon has no triangles
    assert "maximal_faces" not in K._cache


def test_delta_squared_zero_small():
    # rows index the domain, so the composite is M_d * M_{d+1}
    for m in range(0, 5):
        for K in all_complexes(m):
            for d in range(-1, K.dim):
                assert not matrix_product(coboundary_matrix(K, d), coboundary_matrix(K, d + 1))


def test_profiles():
    S0 = SimplicialComplex(2, [(1, 2)])
    assert reduced_cohomology_ranks(S0).ranks == (0, 1)
    kbar3 = SimplicialComplex(6, [(1, 4), (2, 5), (3, 6), (1, 5), (2, 6), (1, 6)])
    assert reduced_cohomology_ranks(kbar3).is_zero()
    assert reduced_cohomology_ranks(polygon_nerve(6)).ranks == (0, 0, 1)
    assert reduced_cohomology_ranks(SimplicialComplex.empty()).ranks == (1,)


def test_cohomology_ranks_from_differential_ranks():
    # reduced cochains of the 4-cycle: levels of sizes 1, 4, 4, ranks 1 and 3
    assert cohomology_ranks([1, 4, 4], [1, 3]) == (0, 0, 1)
    assert cohomology_ranks([1], []) == (1,)
    assert cohomology_ranks([], []) == ()


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
        counts = [len(K.face_masks(k)) for k in range(K.dim + 2)]
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


# -- rank-only eliminations (shorter side, no log) against the logged forward pass ----


@st.composite
def column_matrices(draw):
    """(nrows, columns): a tall, wide or square matrix as column dicts (row -> entry).

    Entries are small ints or Rationals, about half of them zero, so the
    rank is often below both sides; 0 rows and 0 columns are drawn too.
    """
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.fractions(-3, 3, max_denominator=4).map(Rational),
    )
    columns = []
    for _ in range(ncols):
        values = draw(st.lists(entry, min_size=nrows, max_size=nrows))
        columns.append({r: v for r, v in enumerate(values) if v})
    return nrows, columns


def spy_on_reduce(monkeypatch):
    """Record (rows, ncols, logged) of every ``_reduce`` call from then on."""
    calls, reduce = [], rational_linalg._reduce

    def spy(rows, ncols, log=None):
        calls.append((len(rows), ncols, log is not None))
        return reduce(rows, ncols, log)

    monkeypatch.setattr(rational_linalg, "_reduce", spy)
    return calls


@settings(max_examples=200, deadline=None)
@given(column_matrices())
@example((0, []))
@example((4, []))
@example((0, [{}, {}, {}]))
@example((2, [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: Rational(1, 3)}]))
def test_rank_of_columns_matches_the_logged_rank_and_a_dense_rank(case):
    nrows, columns = case
    entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
    expected = reference_rank([[column.get(r, 0) for r in range(nrows)] for column in columns])
    assert SparseMatrix(nrows, len(columns), entries).rank() == expected
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_on_reduce(monkeypatch)
        pivots = rank_of_columns(nrows, [dict(column) for column in columns])
    # one unlogged elimination, with the shorter side as its rows
    short, long = sorted((nrows, len(columns)))
    assert calls == [(short, long, False)]
    # one pivot per unit of rank: its rows are independent, and so are its columns
    dense_columns = [[column.get(r, 0) for r in range(nrows)] for column in columns]
    rows, cols = {r for r, _ in pivots}, {c for _, c in pivots}
    assert len(pivots) == len(rows) == len(cols) == expected
    assert reference_rank([dense_columns[c] for c in cols]) == expected
    assert reference_rank([[column[r] for column in dense_columns] for r in rows]) == expected


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=6), dense_complexes(max_m=6)))
def test_rank_only_ranks_match_the_logged_ranks(K):
    levels = list(itertools.takewhile(bool, (K.face_masks(size) for size in itertools.count())))
    logged = [coboundary_matrix(K, d).rank() for d in range(-1, len(levels) - 2)]
    assert reduced_cohomology_ranks(K).ranks == cohomology_ranks(map(len, levels), logged)
    bases = list(itertools.takewhile(bool, (degree_basis(K, p) for p in itertools.count())))
    logged = []
    for lower, upper in zip(bases, bases[1:]):
        columns = _differential_columns(K, lower, upper)
        entries = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
        logged.append(SparseMatrix(len(upper), len(lower), entries).rank())
    assert real_cohomology_ranks(K) == cohomology_ranks(map(len, bases), logged)


# three isolated vertices: the component J = {1, 2, 3} in degree 4 has dimension 2
# (checked in test_concurrent_first_solves_agree)
THREE_POINTS = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])


def assert_cleared_chain(levels, cover, by_upper_cell):
    """The ranks of a chain's differentials, each cleared step checked against the uncleared one.

    ``by_upper_cell(lower, upper)`` is the uncleared differential from lower
    to upper as dense vectors, one per cell of upper: its rows when its
    codomain gives the rows.  Each step's rank must match the dense rank
    and ``rank_of_columns`` of the uncleared matrix, and the cells it covers
    must be a row basis, which is what the next step may leave out.
    """
    ranks, covered = [], ()
    for lower, upper in zip(levels, levels[1:]):
        vectors = by_upper_cell(lower, upper)
        rank = reference_rank(vectors)
        columns = [{r: v for r, v in enumerate(vector) if v} for vector in vectors]
        assert len(rank_of_columns(len(lower), columns)) == rank
        covered = cover(lower, upper, covered)
        assert len(covered) == rank == reference_rank([vectors[i] for i in covered])
        ranks.append(rank)
    return ranks


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=6), dense_complexes(max_m=6)))
@example(SimplicialComplex.full_simplex(6))
@example(SimplicialComplex(6, [(1, 4), (2, 5), (3, 6)]))
@example(THREE_POINTS)  # a forest of no edges
# two components, a hollow triangle and a path: a forest of 2 + 2 of its 5 edges
@example(SimplicialComplex(6, [(1, 2, 3), (4, 6), *((a, b) for a in (1, 2, 3) for b in (4, 5, 6))]))
def test_cleared_chains_match_the_uncleared_ranks(K):
    def coboundary(lower, upper):
        columns = _coboundary_columns(lower, upper)
        return [[column.get(r, 0) for r in range(len(lower))] for column in columns]

    levels = list(itertools.takewhile(bool, (K.face_masks(size) for size in itertools.count())))
    ranks = assert_cleared_chain(levels, _coboundary_pivots, coboundary)
    assert reduced_cohomology_ranks(K).ranks == cohomology_ranks(map(len, levels), ranks)

    def differential(lower, upper):
        columns = _differential_columns(K, lower, upper)
        return [[column.get(r, 0) for column in columns] for r in range(len(upper))]

    bases = list(itertools.takewhile(bool, (degree_basis(K, p) for p in itertools.count())))
    ranks = assert_cleared_chain(bases, functools.partial(_differential_pivots, K), differential)
    assert real_cohomology_ranks(K) == cohomology_ranks(map(len, bases), ranks)


def test_the_p4_nerve_real_chain_is_cleared(monkeypatch):
    # the critical subcomplex holds 1, 639, 998 and 360 cells (1,998 of the
    # 6,400 of the full model) and its differentials have ranks 0, 562 and
    # 359: d out of the unit is not eliminated, the one from degree 1 is
    # 998 x 639 with 578 nonzero columns, and the top one keeps 998 - 562
    # columns, 360 x 436; every call eliminates the shorter side
    calls, reduce = [], rational_linalg._reduce

    def spy(rows, ncols, log=None):
        calls.append((sum(map(bool, rows)), ncols))
        return reduce(rows, ncols, log)

    monkeypatch.setattr(rational_linalg, "_reduce", spy)
    K = corpus_nerve("p4")
    assert real_cohomology_ranks(K) == (1, 77, 77, 1)
    assert calls == [(578, 998), (360, 436)]
    assert [len(_critical_cells(K, p)) for p in (1, 2, 3)] == [639, 998, 360]


def test_a_covered_middle_level_reads_no_level_above():
    # a proper window of the 8-gon is a forest of paths: its vertices cover its
    # edges (rank |V| - components = |E|), so H^1 is zero with no face level of
    # size 3 read, while H^0 still reads the edges
    for mask in range(1, (1 << 8) - 1):
        K, fresh = polygon_nerve(8), polygon_nerve(8)
        profile = reduced_cohomology_ranks(fresh, mask)
        assert reduced_cohomology_rank(K, 1, mask) == profile.rank(1) == 0
        assert reduced_cohomology_rank(K, 0, mask) == profile.rank(0)
        assert 3 not in K._cache["face_levels"].get(mask, {})


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=7), dense_complexes(max_m=7)))
@example(polygon_nerve(8))
@example(THREE_POINTS)
def test_the_two_lowest_coboundaries_need_no_elimination(K):
    # H^0 of every K_J, and H^1 of a K_J with no triangle, come from a
    # spanning forest of the graph with no elimination: against the c
    # components found by union-find, H^0 = c - 1 (0 for the empty J) and
    # H^1 = |E| - |V| + c
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = spy_on_reduce(monkeypatch)
        for mask in range(1 << K.m):
            J = [v for v in range(1, K.m + 1) if mask >> (v - 1) & 1]
            c = union_find_component_count(K, J)
            assert reduced_cohomology_rank(K, 0, mask) == max(c - 1, 0)
            if not K.face_masks(3, mask):
                edges = sum(K.is_face(pair) for pair in itertools.combinations(J, 2))
                assert reduced_cohomology_rank(K, 1, mask) == edges - len(J) + c
    assert calls == []


def test_rank_only_paths_build_no_matrix_and_log_nothing(monkeypatch):
    built, init = [], SparseMatrix._init

    def counting_init(self, nrows, ncols, rows):
        built.append((nrows, ncols))
        init(self, nrows, ncols, rows)

    monkeypatch.setattr(SparseMatrix, "_init", counting_init)
    calls = spy_on_reduce(monkeypatch)
    table = bigraded_betti_table(corpus_nerve.__wrapped__("c4"))
    assert table.zk_poincare[0] == 1
    # the 4-gon minus two opposite vertices is two points: a core of two vertices
    assert multigraded_betti(polygon_nerve(4), 1, (1, 3)) == 1
    assert sum(real_cohomology_ranks(corpus_nerve.__wrapped__("p4"))) > 0
    assert built == []
    assert calls and not any(logged for _, _, logged in calls)


@settings(max_examples=40, deadline=None)
@given(small_complexes(min_m=1, max_m=7))
@example(SimplicialComplex(7, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6, 7)]))
def test_coboundary_columns_match_the_entry_built_coboundary(K):
    d = -1
    while K.face_masks(d + 1):
        slow = coboundary_from_entries(K, d)
        domain, target = K.face_masks(d + 1), K.face_masks(d + 2)
        columns = _coboundary_columns(domain, target)
        fast = {(r, c): v for c, column in enumerate(columns) for r, v in column.items()}
        assert (len(domain), len(columns), fast) == (slow.nrows, slow.ncols, slow.entries)
        d += 1


@settings(max_examples=40, deadline=None)
@given(small_complexes())
@example(THREE_POINTS)
def test_cohomology_basis_matches_greedy_scan(K):
    for size in range(1, K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size, 2 * size + 1):
                comp = component_basis(K, J, degree)
                B = comp.matrix_from_below()
                coboundaries = [[B.entry(r, c) for r in range(B.nrows)] for c in range(B.ncols)]
                cocycles = tuple(comp.cocycle_basis())
                kept = greedy_keep(coboundaries, cocycles)
                assert comp.cohomology_basis() == tuple(cocycles[i] for i in kept)
                assert len(kept) == comp.cohomology_dimension()


# -- replayed solves (one recorded elimination per matrix) against one-shot solves ---


def reference_rref(A, b=None):
    """Pivot columns and rows of the dense RREF of A (or of [A | b]) over Fraction."""
    width = A.ncols + (b is not None)
    rows = [[Fraction(A.entry(r, c)) for c in range(A.ncols)] for r in range(A.nrows)]
    if b is not None:
        for row, v in zip(rows, b):
            row.append(Fraction(v))
    pivots = []
    for c in range(width):
        piv = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        top = len(pivots)
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(c)
    return tuple(pivots), rows[: len(pivots)]


def reference_solution(A, b):
    """Canonical solution of A x = b (free variables zero) from the dense RREF of [A | b]."""
    pivots, rows = reference_rref(A, b)
    if pivots and pivots[-1] == A.ncols:
        return None  # a pivot in the augmented column: inconsistent
    x = [Fraction(0)] * A.ncols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return tuple(x)


def reference_nullspace(A):
    """Canonical kernel basis: per free column f, 1 at f and -RREF[., f] at the pivots."""
    pivots, rows = reference_rref(A)
    basis = []
    for f in range(A.ncols):
        if f not in pivots:
            vec = [Fraction(0)] * A.ncols
            vec[f] = Fraction(1)
            for row, c in zip(rows, pivots):
                vec[c] = -row[f]
            basis.append(tuple(vec))
    return tuple(basis)


sparse_rationals = st.one_of(
    st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(7, 5)]),
    st.sampled_from([10**20 + 1, -(3**40), Fraction(10**15, 7)]),
)


@st.composite
def matrices_with_rhs(draw):
    """A sparse rational matrix and right-hand sides: images A x and arbitrary vectors.

    Entries mix small and large ints with non-integer fractions; rows may be
    repeated (possibly rescaled) or zero, and the shape may be wide or tall.
    """
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(sparse_rationals, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for _ in range(draw(st.integers(0, 2))):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        scale = draw(st.sampled_from([0, 1, -2, Fraction(3, 2)]))
        rows.insert(draw(st.integers(0, len(rows))), [scale * v for v in source])
    nrows = len(rows)
    A = dense(rows)
    rhs = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.lists(sparse_rationals, min_size=ncols, max_size=ncols))
        rhs.append([sum(Fraction(rows[r][c]) * x[c] for c in range(ncols)) for r in range(nrows)])
        rhs.append(draw(st.lists(sparse_rationals, min_size=nrows, max_size=nrows)))
    return A, rhs


def fresh(A):
    return SparseMatrix(A.nrows, A.ncols, A.entries)


def all_rational(vectors):
    return all(type(v) is Rational for vec in vectors for v in vec)


@settings(max_examples=300, deadline=None)
@given(matrices_with_rhs(), st.booleans())
def test_replayed_solves_match_one_shot_solves(case, rank_first):
    A, rhs = case
    pivots, _ = reference_rref(A)
    if rank_first:
        # pivots cached by the forward pass alone: the first solve must still record a log
        assert A.rank() == len(pivots)
    for _ in range(2):
        for b in rhs:
            expected = reference_solution(A, b)
            one_shot = solve_linear(fresh(A), b)
            assert (None if one_shot is None else one_shot.vector) == expected
            x = A.solve(b)
            assert x == expected
            assert x is None or all_rational([x])
    assert A.pivot_columns() == fresh(A).pivot_columns() == pivots
    expected = reference_nullspace(A)
    first = fresh(A)
    for B in (A, first):  # after solves, and before anything else is read
        basis = nullspace_basis(B)
        assert basis == expected and all_rational(basis)
    assert first.pivot_columns() == pivots


@settings(max_examples=150, deadline=None)
@given(matrices_with_rhs(), st.sampled_from([1, -2, Fraction(3, 2)]))
def test_residual_reads_the_column_space(case, scale):
    A, rhs = case
    zero = (Rational(0),) * A.nrows
    for b in rhs:
        r = A.residual(b)
        assert len(r) == A.nrows and all_rational([r])
        assert (r == zero) == (fresh(A).solve(b) is not None)
    # linear in b
    b1, b2 = rhs[0], rhs[-1]
    combined = [scale * u + v for u, v in zip(b1, b2)]
    expected = tuple(scale * u + v for u, v in zip(A.residual(b1), A.residual(b2)))
    assert A.residual(combined) == expected
    # every column of A is in the column space
    for c in range(A.ncols):
        assert A.residual([A.entry(r, c) for r in range(A.nrows)]) == zero
    # a stored forward pass leaves the solve unchanged
    first = fresh(A)
    first.rank()
    for b in rhs:
        assert first.solve(b) == fresh(A).solve(b)


@st.composite
def vector_lists(draw):
    """Equal-length rational vectors, some of them combinations of earlier ones, and probes."""
    n = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        if vectors and draw(st.booleans()):
            u, v = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            s, t = draw(sparse_rationals), draw(sparse_rationals)
            vectors.append([s * a + t * b for a, b in zip(u, v)])
        else:
            vectors.append(draw(st.lists(sparse_rationals, min_size=n, max_size=n)))
    probes = draw(st.lists(st.lists(sparse_rationals, min_size=n, max_size=n), max_size=3))
    return vectors, probes


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_greedy_span_matches_pivot_columns_and_solves(case):
    vectors, probes = case
    n = len(vectors[0])
    kept, span = greedy_span(range(len(vectors)), vectors.__getitem__, n, len(vectors))
    assert list(kept) == greedy_keep([], vectors)
    assert kept == SparseMatrix(n, 0).with_columns(vectors).pivot_columns()
    columns = [vectors[i] for i in kept]
    A = SparseMatrix(n, 0).with_columns(columns)
    assert span == A
    for b in vectors + probes:
        x = span.solve(b)
        solution = solve_linear(A, b)
        assert (x is None) == (solution is None)
        assert (x is None) == (reference_rank(columns + [b]) > len(kept))
        if x is not None:
            assert x == solution.vector
            assert len(x) == len(kept) and all_rational([x])
            # b = sum of x[k] times kept vector k
            for r in range(n):
                assert Fraction(b[r]) == sum(c * Fraction(col[r]) for c, col in zip(x, columns))


@settings(max_examples=100, deadline=None)
@given(vector_lists(), st.integers(0, 7))
def test_greedy_span_stops_at_its_limit(case, limit):
    vectors, _ = case
    n = len(vectors[0])
    everything, _ = greedy_span(range(len(vectors)), vectors.__getitem__, n, len(vectors))
    read = []

    def vector(i):
        read.append(i)
        return vectors[i]

    kept, span = greedy_span(range(len(vectors)), vector, n, limit)
    assert kept == everything[:limit] and span.ncols == len(kept)
    if not limit:
        assert read == []
    elif len(kept) == limit:  # no candidate is read past the one that reaches the limit
        assert read == list(range(kept[-1] + 1))
    else:
        assert read == list(range(len(vectors)))


def test_int_entries_stay_ints():
    A = SparseMatrix(2, 3, {(0, 0): 3, (0, 1): True, (1, 1): Fraction(1, 2), (1, 2): 0})
    assert type(A.entry(0, 0)) is int
    assert type(A.entry(0, 1)) is Rational and A.entry(0, 1) == 1
    assert type(A.entry(1, 1)) is Rational
    assert (1, 2) not in A.entries
    K = polygon_nerve(5)
    assert all(type(v) is int for v in coboundary_matrix(K, 0).entries.values())
    comp = component_basis(K, (1, 2, 3), 4)
    assert all(type(v) is int for v in comp.matrix_from_below().entries.values())


def coboundary_from_entries(K, d):
    """The coboundary C^d -> C^{d+1} of K built entry by entry from its face tuples."""
    lower, upper = K.faces(d + 1), K.faces(d + 2)
    index = {f: i for i, f in enumerate(lower)}
    entries = {}
    for col, tau in enumerate(upper):
        for k in range(len(tau)):
            entries[(index[tau[:k] + tau[k + 1 :]], col)] = (-1) ** k
    return SparseMatrix(len(lower), len(upper), entries)


def test_row_built_matrices_equal_entry_built_ones_and_stay_unchanged():
    # the builders hand their rows to the matrix, which keeps them as its
    # storage; the forward pass must work on a copy
    K = SimplicialComplex(7, [(1, 2, 3), (3, 4), (4, 5, 6), (1, 6, 7)])
    built = [(coboundary_matrix(K, d), coboundary_from_entries(K, d)) for d in range(-1, 3)]
    comp = component_basis(K, (1, 2, 3, 4, 5), 7)
    from_below = comp.matrix_from_below()
    built.append((from_below, SparseMatrix(from_below.nrows, from_below.ncols, from_below.entries)))
    for A, B in built:
        assert A == B and B == A and repr(A) == repr(B)
        assert [[A.entry(r, c) for c in range(A.ncols)] for r in range(A.nrows)] == [
            [B.entry(r, c) for c in range(B.ncols)] for r in range(B.nrows)
        ]
        entries = dict(A.entries)
        assert A.rank() == B.rank()
        assert list(A.kernel()) == list(B.kernel())
        A.residual([1] * A.nrows)
        assert A.entries == entries and A == B
        assert A.rows_as_dicts() == B.rows_as_dicts()


def test_concurrent_first_solves_agree():
    # threads racing to store one matrix's elimination, one component's basis, or
    # the face levels of one K_J, must all read correct answers; the forward pass
    # may be stored already
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(5)
    cases = []
    for _ in range(20):
        rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(5)] for _ in range(5)]
        cases.append((dense(rows), [[rng.randint(-2, 2) for _ in range(5)] for _ in range(8)]))
    components = [(THREE_POINTS, (1, 2, 3), 4, 2), (polygon_nerve(6), (1, 2, 3, 4, 5, 6), 8, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for rank_first in (False, True):
                for A, rhs in cases:
                    A = fresh(A)
                    if rank_first:
                        A.rank()
                    futures = [pool.submit(A.solve, b) for b in rhs]
                    got = [f.result(timeout=60) for f in futures]
                    assert got == [reference_solution(A, b) for b in rhs]
            for K, J, degree, hdim in components:
                comp = ComponentBasis(K, _mask_of(J, K.m), degree)  # not the memoized component
                B = comp.matrix_from_below()
                classes = B.with_columns(component_basis(K, J, degree).cohomology_basis())
                cocycles = tuple(component_basis(K, J, degree).cocycle_basis())
                cocycles += tuple(tuple(x + y for x, y in zip(z, cocycles[0])) for z in cocycles)
                futures = [
                    pool.submit(comp.class_vector, comp.cochain_from_coordinates(z))
                    for z in cocycles
                ]
                got = [f.result(timeout=60) for f in futures]
                assert got == [solve_linear(classes, z).vector[B.ncols :] for z in cocycles]
                assert len(comp.cohomology_basis()) == comp.cohomology_dimension() == hdim
            # a fresh complex, so its face-level store starts empty, raced on every degree
            # of each J; the same non-faces with a cone vertex added give the same components
            nonfaces = [(1, 5), (2, 6), (3, 7, 8), (1, 4, 8), (2, 3), (4, 9, 10)]
            K = SimplicialComplex(10, nonfaces)
            cone = SimplicialComplex(11, nonfaces)
            assert not K._cache["face_levels"]
            start = threading.Barrier(8, timeout=60)

            def build(K, J, order, barrier=None):
                if barrier:
                    barrier.wait()
                matrices = {}
                for t in order:
                    A = component_basis(K, J, t).matrix_from_below()
                    matrices[t] = (A.nrows, A.ncols, A.entries)
                return matrices

            levels = {}
            for J in itertools.combinations(range(1, 11), 9):
                degrees = list(range(len(J) - 1, 2 * len(J) + 2))
                expected = build(cone, J, degrees)
                futures = [
                    pool.submit(build, K, J, degrees[i:] + degrees[:i], start) for i in range(8)
                ]
                assert all(f.result(timeout=60) == expected for f in futures)
                mask = sum(1 << (v - 1) for v in J)
                levels[mask] = dict(enumerate(K.induced_face_levels(mask)))  # bottom-up
            # threads may store in any order, but only whole levels: every stored level,
            # from either end, is the bottom-up level of its size
            store = K._cache["face_levels"]
            assert set(store) == set(levels)
            assert all(
                level == levels[mask].get(size, ())
                for mask, kept in store.items()
                for size, level in kept.items()
            )
            assert all(
                K.face_masks(k, mask) == full.get(k, ())
                for mask, full in levels.items()
                for k in range(12)
            )
            # an upper level (read off the complements) and a lower one (grown
            # bottom-up) of one fresh mask, raced in both orders
            K = SimplicialComplex(10, nonfaces)
            full = dict(enumerate(K.induced_face_levels(K._full_mask)))
            assert full[6] and 7 not in full

            def read(order):
                start.wait()
                return [K.face_masks(k) for k in order]

            orders = [(6, 3), (3, 6), (7, 2), (2, 7)] * 2
            futures = [pool.submit(read, order) for order in orders]
            for future, order in zip(futures, orders):
                assert future.result(timeout=60) == [full.get(k, ()) for k in order]
            kept = K._cache["face_levels"][K._full_mask]
            assert {6, 3, 2} <= set(kept)
            assert all(level == full.get(size, ()) for size, level in kept.items())
    finally:
        sys.setswitchinterval(interval)


def test_solve_checks_the_length():
    with pytest.raises(InputError):
        dense([[1, 0], [0, 1]]).solve([1])


def unit_vectors(n):
    return [tuple(Rational(int(i == j)) for j in range(n)) for i in range(n)]


@settings(max_examples=30, deadline=None)
@given(small_complexes())
@example(THREE_POINTS)
def test_component_reads_match_one_shot_solves(K):
    for size in range(1, K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for degree in range(size, 2 * size + 1):
                comp = component_basis(K, J, degree)
                below = component_basis(K, J, degree - 1)
                B = comp.matrix_from_below()
                units = unit_vectors(len(comp))
                images = [  # coordinates of coboundaries: every one has a primitive
                    comp.coordinates(below.cochain_from_coordinates(e).differential())
                    for e in unit_vectors(len(below))
                ]
                for coords in units + images:
                    cochain = comp.cochain_from_coordinates(coords)
                    one_shot = solve_linear(fresh(B), coords)
                    primitive = comp.primitive(cochain)
                    if one_shot is None:
                        assert primitive is None
                    else:
                        assert primitive == below.cochain_from_coordinates(one_shot.vector)
                        assert primitive.differential() == cochain
                for z in tuple(comp.cocycle_basis()) + tuple(images):
                    classes = B.with_columns(comp.cohomology_basis())  # a fresh matrix
                    expected = solve_linear(classes, z).vector[B.ncols:]
                    assert comp.class_vector(comp.cochain_from_coordinates(z)) == expected
                for coords in units:
                    cochain = comp.cochain_from_coordinates(coords)
                    if not cochain.differential().is_zero():
                        with pytest.raises(NotACocycleError):
                            comp.class_vector(cochain)

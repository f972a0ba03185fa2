import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex, _tuple_of
from moment_angle.errors import CapacityError, InputError
from moment_angle.families import FamilySpec, family_complex, polygon_nerve
from moment_angle.hochster import (
    bigraded_betti_table,
    component_count_betti,
    multigraded_betti,
)
from moment_angle.koszul import _component_cached, component_basis
from moment_angle.massey import family_massey_input
from moment_angle.multiwedge import j_construction
from moment_angle.rational_linalg import cohomology_profile, reduced_cohomology_ranks
import moment_angle.hochster as hochster
import moment_angle.rational_linalg as rational_linalg

from conftest import (
    CORPUS_GRAPHS,
    WEDGE_FAMILY,
    corpus_nerve,
    dense_complexes,
    random_complex,
    small_complexes,
)


def test_multigraded_examples():
    hexn = polygon_nerve(6)
    assert multigraded_betti(hexn, 1, (1, 3)) == 1
    assert multigraded_betti(hexn, 0, ()) == 1
    kbar3 = family_complex(FamilySpec("kbar", n=3))
    assert multigraded_betti(kbar3, 4, tuple(range(1, 7))) == 0


def test_pentagon_table():
    table = bigraded_betti_table(polygon_nerve(5))
    assert table.zk_poincare == (1, 0, 0, 5, 5, 0, 0, 1)


def test_hexagon_table():
    table = bigraded_betti_table(polygon_nerve(6))
    assert table.zk_poincare == (1, 0, 0, 9, 16, 9, 0, 0, 1)
    assert table.rank(1, 2) == 9
    assert table.rank(0, 0) == 1


def test_simplex_table():
    table = bigraded_betti_table(SimplicialComplex.full_simplex(4))
    assert table.bigraded == {(0, 0): 1}
    assert table.zk_poincare == (1,)
    assert table.rk_poincare == (1,)


def test_betti_symmetry_for_polygons():
    # Poincare duality of the (m+2)-manifold Z_K for polygon nerves
    for m in range(4, 9):
        zk = bigraded_betti_table(polygon_nerve(m)).zk_poincare
        assert len(zk) == m + 3
        assert zk == tuple(reversed(zk))


def test_component_count_betti():
    hexn = polygon_nerve(6)
    assert component_count_betti(hexn, 1) == 9 == len(hexn.minimal_nonfaces)
    assert component_count_betti(hexn, 2) == 16
    simplex = SimplicialComplex.full_simplex(5)
    assert all(component_count_betti(simplex, i) == 0 for i in range(1, 5))
    with pytest.raises(InputError):
        component_count_betti(hexn, 0)


def test_component_count_matches_table():
    for m in range(4, 9):
        K = polygon_nerve(m)
        table = bigraded_betti_table(K)
        for i in range(1, m):
            assert component_count_betti(K, i) == table.rank(i, i + 1)
    rng = random.Random(13)
    for _ in range(10):
        K = random_complex(rng, rng.randint(2, 6))
        table = bigraded_betti_table(K)
        for i in range(1, K.m):
            assert component_count_betti(K, i) == table.rank(i, i + 1)


def test_capacity_guard():
    big = SimplicialComplex(23, [(1, 2)])
    with pytest.raises(CapacityError) as err:
        bigraded_betti_table(big)
    assert err.value.guard == "betti-table"
    # targeted multidegree queries have no bound
    assert multigraded_betti(big, 1, (1, 2)) == 1
    table = bigraded_betti_table(big, multidegrees=[(1, 2)])
    assert table.rank(1, 2) == 1


def test_targeted_queries_cost_only_the_subset():
    # K_J is the octahedral 5-sphere; K has about 2^40 faces, and a query on
    # J may build only the 3^6 faces of K_J
    K = SimplicialComplex(40, [(2 * k - 1, 2 * k) for k in range(1, 7)])
    J = range(1, 13)
    assert multigraded_betti(K, 6, J) == 1
    assert bigraded_betti_table(K, multidegrees=[J]).bigraded == {(6, 12): 1}
    assert multigraded_betti(SimplicialComplex(40, [(1, 2)]), 0, J) == 0


def test_a_family_value_multidegree_reads_its_levels_from_the_top():
    # the (3, 6) family value lies in multidegree J = 1..21 and reduced degree
    # 16; the core of J drops vertex 20, and its levels of 16, 17 and 18 faces
    # are read off their complements, where growing K_J bottom-up passes the
    # face-level capacity at 7 faces
    input = family_massey_input(3, 6)
    K, J = input.complex, range(1, 22)
    assert input.window_reduced_degree(1, 3) == 16
    assert multigraded_betti(K, 4, J) == 1
    core = K._full_mask ^ 1 << 19
    assert K.strong_core(K._full_mask) == core
    assert set(K._cache["face_levels"][core]) == {0, 16, 17, 18}


def test_full_table_eliminates_only_connected_uncollapsible_subsets(monkeypatch):
    # in the 13-gon every proper subset is a union of paths, each collapsing
    # to a point; the disjoint union of points takes the sum of its sides, so
    # only the empty set, the 13 singletons and the cycle itself are eliminated
    profiles = []

    def counting(levels):
        profile = cohomology_profile(levels)
        profiles.append(profile)
        return profile

    monkeypatch.setattr(hochster, "cohomology_profile", counting)
    table = bigraded_betti_table(polygon_nerve(13))
    assert len(profiles) == 15
    assert table.zk_poincare == tuple(reversed(table.zk_poincare))
    assert table.rank(1, 2) == 13 * 10 // 2  # one per non-adjacent pair


def stored_induced_masks(K):
    """The masks of the proper K_J in K's face-level store.

    Each kept level, of K_J or of K itself, must be the level that
    ``induced_face_levels`` grows bottom-up for the same J.
    """
    store = K._cache["face_levels"]
    for mask, kept in store.items():
        grown = dict(enumerate(K.induced_face_levels(mask)))
        assert all(level == grown.get(size, ()) for size, level in kept.items())
    return set(store) - {K._full_mask}


def test_betti_paths_keep_only_core_levels():
    # the Koszul components keep the face levels of each K_J in K's face-level
    # store; a full table would then keep 2^m entries, so the walk keeps none,
    # while a single J keeps the levels of its core, which the components of
    # that core read too
    K = polygon_nerve(7)
    bigraded_betti_table(K)
    assert stored_induced_masks(K) == set()
    J = (1, 2, 3, 5)  # the path 1-2-3 collapses onto 3, so the core is {3, 5}
    assert bigraded_betti_table(K, multidegrees=[J]).bigraded == {(3, 4): 1}
    assert stored_induced_masks(K) == {0b10100}
    K = polygon_nerve(7)
    assert multigraded_betti(K, 3, J) == 1
    assert multigraded_betti(K, 1, (1, 2)) == 0  # an edge: a one-vertex core keeps nothing
    assert stored_induced_masks(K) == {0b10100}


def assert_core_rank_matches_direct_rank(K, J):
    """multigraded_betti on the core of J against the profile of K_J itself."""
    mask = sum(1 << (v - 1) for v in set(J))
    direct = cohomology_profile(K.induced_face_levels(mask))
    ranks = [multigraded_betti(K, i, J) for i in range(len(set(J)) + 1)]
    assert ranks == [direct.rank(len(set(J)) - i - 1) for i in range(len(set(J)) + 1)]
    core = mask
    while v := K.dominated_vertex(core):
        core ^= 1 << (v - 1)
    if core and core & (core - 1) == 0:  # K_J contracts to a point
        assert not any(direct.ranks)


@st.composite
def complexes_with_large_nonfaces(draw):
    """A complex on 3..8 vertices whose non-faces mix pairs with sets of 3 or more."""
    m = draw(st.integers(3, 8))
    pairs = draw(st.lists(st.sets(st.integers(1, m), min_size=2, max_size=2), max_size=m))
    larger = draw(st.lists(st.sets(st.integers(1, m), min_size=3, max_size=m), min_size=1, max_size=4))
    nonfaces = pairs + larger
    return SimplicialComplex(m, [tuple(sorted(f)) for f in nonfaces])


@settings(max_examples=200, deadline=None)
@given(st.one_of(complexes_with_large_nonfaces(), small_complexes(min_m=1, max_m=3)), st.data())
def test_core_ranks_match_direct_ranks(K, data):
    subset = data.draw(st.sets(st.integers(1, K.m)))
    vertex = data.draw(st.integers(1, K.m))
    for J in [(), (vertex,), tuple(range(1, K.m + 1)), tuple(sorted(subset))]:
        assert_core_rank_matches_direct_rank(K, J)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_complexes(min_m=1, max_m=8), dense_complexes(), st.sampled_from(WEDGE_FAMILY)),
    st.data(),
)
def test_core_reader_matches_the_levels_of_K_J(K, data):
    # multigraded_betti and the listed profile read the levels of J's core from
    # a store that Koszul components and upper-level reads, on J, its core or
    # any subset, have filled first in random order; both must agree with the
    # profile of K_J's own levels, grown bottom-up and kept nowhere
    _component_cached.cache_clear()  # a component of an equal complex reads that one's store
    K = SimplicialComplex(K.m, K.minimal_nonfaces)
    mask = data.draw(st.integers(0, K._full_mask), label="J")
    subsets = st.sampled_from([mask, K.strong_core(mask)]) | st.integers(0, K._full_mask)
    for _ in range(data.draw(st.integers(0, 6), label="fills")):
        sub = data.draw(subsets, label="fill subset")
        n = sub.bit_count()
        if data.draw(st.booleans(), label="component"):
            component_basis(K, _tuple_of(sub), n + data.draw(st.integers(0, n))).cohomology_basis()
        else:
            K.face_masks(data.draw(st.integers(n // 2, n + 1)), sub)
    J = _tuple_of(mask)
    direct = cohomology_profile(K.induced_face_levels(mask))
    assert [multigraded_betti(K, i, J) for i in range(len(J) + 1)] == [
        direct.rank(len(J) - i - 1) for i in range(len(J) + 1)
    ]
    listed = bigraded_betti_table(K, multidegrees=[J]).bigraded
    assert listed == {(len(J) - d - 1, len(J)): r for d, r in direct.items() if r}
    stored_induced_masks(K)  # every level kept, by either reader, is the grown one


@pytest.mark.parametrize("name", sorted(CORPUS_GRAPHS))
def test_core_ranks_match_direct_ranks_on_corpus_nerves(name):
    K = corpus_nerve.__wrapped__(name)  # a fresh nerve: its face-level store starts empty
    rng = random.Random(name)
    subsets = [(), tuple(range(1, min(K.m, 1) + 1)), tuple(range(1, K.m + 1))]
    subsets += [tuple(rng.sample(range(1, K.m + 1), rng.randint(0, K.m))) for _ in range(40)]
    for J in subsets:
        assert_core_rank_matches_direct_rank(K, J)
    cores = {K.strong_core(sum(1 << (v - 1) for v in set(J))) for J in subsets}
    assert stored_induced_masks(K) == {c for c in cores if c & (c - 1) or not c} - {K._full_mask}


def test_multidegree_filter_restricts_sums():
    K = polygon_nerve(6)
    table = bigraded_betti_table(K, multidegrees=[(1, 3), (2, 4), (1, 2)])
    assert table.rank(1, 2) == 2  # only the two listed non-faces contribute
    # each listing counts once per occurrence, in whatever vertex order
    table = bigraded_betti_table(K, multidegrees=[(3, 1), (1, 3), (2, 4), (1, 2)])
    assert table.rank(1, 2) == 3


def test_table_invariants():
    rng = random.Random(19)
    for _ in range(15):
        K = random_complex(rng, rng.randint(1, 6))
        table = bigraded_betti_table(K)
        assert table.rank(0, 0) == 1
        for (i, j), r in table.bigraded.items():
            assert r > 0
            assert 0 <= i <= j <= K.m


def test_multiwedge_transfer_vanishing():
    # the full-support Betti numbers of the wedged closed family vanish in the
    # two windows that control strictness, matching the unwedged family
    for n in (2, 3):
        kbar = family_complex(FamilySpec("kbar", n=n))
        full_base = tuple(range(1, 2 * n + 1))
        assert multigraded_betti(kbar, 2 * n - 2, full_base) == 0
        assert multigraded_betti(kbar, 2 * n - 1, full_base) == 0
        for s in (2, 3):
            K = family_complex(FamilySpec("kbarns", n=n, s=s))
            full = tuple(range(1, n * (s + 1) + 1))
            assert multigraded_betti(K, 2 * n - 2, full) == 0
            assert multigraded_betti(K, 2 * n - 1, full) == 0


def slow_hochster_sum(K, subsets):
    """Hochster's sum over explicit induced subcomplexes, the reference for the lattice path."""
    bigraded = {}
    for J in subsets:
        for d, r in reduced_cohomology_ranks(K.induced(J)).items():
            if r:
                key = (len(J) - d - 1, len(J))
                bigraded[key] = bigraded.get(key, 0) + r
    return bigraded


def all_subsets(m):
    return [J for size in range(m + 1) for J in itertools.combinations(range(1, m + 1), size)]


@settings(max_examples=60, deadline=None)
@given(small_complexes(min_m=1, max_m=7), st.randoms(use_true_random=False))
def test_lattice_sum_matches_induced_complexes(K, rng):
    subsets = all_subsets(K.m)
    assert bigraded_betti_table(K).bigraded == slow_hochster_sum(K, subsets)
    chosen = rng.sample(subsets, min(len(subsets), 5))
    assert bigraded_betti_table(K, multidegrees=chosen).bigraded == slow_hochster_sum(K, chosen)
    for J in chosen:
        for i in range(len(J) + 1):
            expected = slow_hochster_sum(K, [J]).get((i, len(J)), 0)
            assert multigraded_betti(K, i, J) == expected


def disjoint_union(K1, K2):
    """K1 on vertices 1..m1 and K2 shifted above them, with no edge between the two."""
    nonfaces = list(K1.minimal_nonfaces)
    nonfaces += [tuple(v + K1.m for v in nf) for nf in K2.minimal_nonfaces]
    nonfaces += [(a, b + K1.m) for a in range(1, K1.m + 1) for b in range(1, K2.m + 1)]
    return SimplicialComplex(K1.m + K2.m, nonfaces)


def test_collapsed_table_matches_induced_complexes_m9_to_m11(monkeypatch):
    # the full table reuses the profile of K_{J - v} whenever v has an
    # acyclic link or is dominated in K_J, and adds the profiles of the two
    # sides of a disconnected K_J;
    # here every one of the 2^m subsets is checked against its own induced
    # complex, on flag and non-flag complexes
    rng = random.Random(8)
    cases = [
        polygon_nerve(9),
        SimplicialComplex(10, [(1, 2, 3), (3, 6, 9), (4, 8, 10), (2, 7, 10), (1, 5)]),
        random_complex(rng, 10),
        SimplicialComplex(
            11, [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 1), (2, 9), (4, 10), (6, 11), (8, 9, 10, 11)]
        ),
        # disconnected subsets with no dominated vertex whose sides hold
        # larger non-faces: a hollow triangle with a cone on one edge, and
        # a hollow tetrahedron with a pendant hollow triangle
        disjoint_union(
            SimplicialComplex(4, [(1, 2, 3)]),
            SimplicialComplex(6, [(1, 2, 3, 4), (1, 5), (2, 5), (3, 6), (4, 6), (5, 4, 6)]),
        ),
    ]
    assert sum(not K.structure_report().is_flag for K in cases) == 4
    # the walk scans J for a dominated vertex only when no vertex outside the
    # larger non-faces has an acyclic link; record what that scan strips
    stripped = []
    dominated_vertex = SimplicialComplex.dominated_vertex

    def recording(K, mask):
        v = dominated_vertex(K, mask)
        if v:
            stripped.append((K, v))
        return v

    monkeypatch.setattr(SimplicialComplex, "dominated_vertex", recording)
    for K in cases:
        assert bigraded_betti_table(K).bigraded == slow_hochster_sum(K, all_subsets(K.m))

    def in_a_larger_nonface(K, v):
        return any(nf >> (v - 1) & 1 and nf.bit_count() > 2 for nf in K._mf_masks)

    # a dominated vertex in no larger non-face has a cone for its link, so
    # the link rule takes it first
    assert all(in_a_larger_nonface(K, v) for K, v in stripped)
    union = cases[-1]
    assert any(K is union for K, _ in stripped)


@st.composite
def flag_complexes(draw, max_m):
    """Hypothesis strategy: a flag complex, its minimal non-faces all pairs."""
    m = draw(st.integers(2, max_m))
    pairs = draw(st.lists(st.sets(st.integers(1, m), min_size=2, max_size=2), max_size=2 * m))
    return SimplicialComplex(m, [tuple(sorted(p)) for p in pairs])


def test_flag_tables_collapse_by_acyclic_links_alone(monkeypatch):
    # in a flag complex every vertex lies in pair non-faces only, so its link
    # in K_J is the full subcomplex on its neighbours, and a dominated vertex
    # has an acyclic one: the walk makes no domination test, and these are
    # the masks that the link rule collapses
    fired = []
    find = hochster._acyclic_link_vertex

    def recording(stars, candidates, mask, ranks):
        v = find(stars, candidates, mask, ranks)
        if v:
            fired.append(mask)
        return v

    def refusing(K, mask):
        raise AssertionError("a domination test in a flag table")

    monkeypatch.setattr(hochster, "_acyclic_link_vertex", recording)
    monkeypatch.setattr(SimplicialComplex, "dominated_vertex", refusing)
    counts = []
    for K in [polygon_nerve(13), corpus_nerve("c4"), polygon_nerve(9), corpus_nerve("p4")]:
        assert K.structure_report().is_flag
        fired.clear()
        bigraded_betti_table(K)
        counts.append(len(fired))
    assert counts == [7670, 3955, 435, 469]


def test_the_full_table_eliminates_only_above_the_edges(monkeypatch):
    # the two lowest coboundaries are read off a spanning forest, and a
    # connected K_J with a vertex whose link is acyclic takes the ranks of
    # K_{J - v}; eliminating every coboundary of each connected subset with
    # no dominated vertex makes 15, 204, 11 and 63 eliminations here
    calls = []
    rank_of_columns = rational_linalg.rank_of_columns

    def counting(nrows, columns):
        calls.append(nrows)
        return rank_of_columns(nrows, columns)

    monkeypatch.setattr(rational_linalg, "rank_of_columns", counting)
    counts = []
    for K in [polygon_nerve(13), corpus_nerve("c4"), polygon_nerve(9), corpus_nerve("p4")]:
        calls.clear()
        bigraded_betti_table(K)
        counts.append(len(calls))
    assert counts == [0, 14, 0, 2]


def trimmed(ranks):
    """Reduced cohomology ranks without their trailing zeros."""
    ranks = list(ranks)
    while ranks and not ranks[-1]:
        ranks.pop()
    return tuple(ranks)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        small_complexes(min_m=1, max_m=9), dense_complexes(max_m=9), flag_complexes(max_m=9)
    )
)
@example(SimplicialComplex(3, [(1, 2, 3)]))  # the hollow triangle: no vertex link is a full subcomplex
def test_acyclic_links_collapse_only_what_the_induced_complexes_allow(K):
    # a vertex v of K_J in no larger minimal non-face has the full subcomplex
    # on its neighbours as its link; when that is acyclic the walk takes the
    # ranks of K_{J - v}, each checked here on the induced complexes
    collapsed = []
    find = hochster._acyclic_link_vertex

    def recording(stars, candidates, mask, ranks):
        v = find(stars, candidates, mask, ranks)
        if v:
            collapsed.append((mask, v))
        return v

    with mock.patch.object(hochster, "_acyclic_link_vertex", recording):
        table = bigraded_betti_table(K)
    for mask, v in collapsed:
        whole, rest = (reduced_cohomology_ranks(K.induced(_tuple_of(J))) for J in (mask, mask ^ v))
        assert trimmed(whole.ranks) == trimmed(rest.ranks)
        assert not any(nf & ~mask == 0 and nf & v and nf.bit_count() > 2 for nf in K._mf_masks)
    expected = slow_hochster_sum(K, all_subsets(K.m))
    assert table.bigraded == expected
    zk = [0] * (2 * K.m + 1)
    for (i, j), r in expected.items():
        zk[2 * j - i] += r
    assert table.zk_poincare == trimmed(zk)


def wedge_poincare_sums(K, J):
    """Poincare vectors of Z_{K(J)} and R_{K(J)} from the induced complexes of K alone.

    rank H^p(Z_{K(J)}) sums rank H~^{p - 1 - sum_{k in I} (2 j_k - 1)}(K_I) over
    I in [m]; rank H^p(R_{K(J)}) sums rank H~^{p - 1 - sum_{k in I} (j_k - 1)}(K_I).
    """
    zk, rk = {}, {}
    for I in all_subsets(K.m):
        for d, r in reduced_cohomology_ranks(K.induced(I)).items():
            if r:
                p = d + 1 + sum(2 * J[k - 1] - 1 for k in I)
                zk[p] = zk.get(p, 0) + r
                p = d + 1 + sum(J[k - 1] - 1 for k in I)
                rk[p] = rk.get(p, 0) + r

    def vector(data):
        return tuple(data.get(p, 0) for p in range(max(data) + 1))

    return vector(zk), vector(rk)


@st.composite
def wedge_inputs(draw):
    m = draw(st.integers(2, 5))
    nonfaces = draw(
        st.lists(st.sets(st.integers(1, m), min_size=2, max_size=min(3, m)), max_size=m + 2)
    )
    J = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    return SimplicialComplex(m, [tuple(sorted(f)) for f in nonfaces]), J


@settings(max_examples=60, deadline=None)
@given(wedge_inputs())
# 13 vertices, past the m <= 11 range of the subset-by-subset oracle
@example((SimplicialComplex(5, [(1, 3), (2, 4), (1, 2, 5), (3, 4, 5)]), (3, 3, 3, 2, 2)))
def test_multiwedge_table_matches_transfer_sums(case):
    # the full table of K(J) walks up to 2^15 subsets; the sums read only K's
    K, J = case
    table = bigraded_betti_table(j_construction(K, J))
    assert (table.zk_poincare, table.rk_poincare) == wedge_poincare_sums(K, J)


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for p, x in enumerate(a):
        for q, y in enumerate(b):
            out[p + q] += x * y
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(small_complexes(min_m=1, max_m=4), small_complexes(min_m=1, max_m=4))
def test_join_table_matches_kunneth_products(K1, K2):
    # Z_{K1 * K2} = Z_{K1} x Z_{K2} and R_{K1 * K2} = R_{K1} x R_{K2}; the
    # Stanley-Reisner ring of a join is the tensor product of the factors' rings
    t1, t2 = bigraded_betti_table(K1), bigraded_betti_table(K2)
    table = bigraded_betti_table(K1.join(K2))
    assert table.zk_poincare == convolve(t1.zk_poincare, t2.zk_poincare)
    assert table.rk_poincare == convolve(t1.rk_poincare, t2.rk_poincare)
    bigraded = {}
    for (i1, j1), r1 in t1.bigraded.items():
        for (i2, j2), r2 in t2.bigraded.items():
            key = (i1 + i2, j1 + j2)
            bigraded[key] = bigraded.get(key, 0) + r1 * r2
    assert table.bigraded == bigraded

import gc
import itertools
import json
import math
import random
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle import complexes, multiwedge
from moment_angle.complexes import (
    SimplicialComplex,
    _antichain,
    _mask_of,
    _tuple_of,
    from_maximal_faces,
    from_minimal_nonfaces,
    induced_subcomplex,
    join,
    maximal_faces,
    stellar_vertex_cut,
    structure_report,
)
from moment_angle.errors import CapacityError, GhostVertexError, InputError
from moment_angle.families import polygon_nerve
from moment_angle.graphs import BuildingSet
from moment_angle.hochster import bigraded_betti_table, multigraded_betti
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.massey import MasseyClassInput, canonical_class
from moment_angle.multiwedge import j_construction
from moment_angle.real_cochains import RealCochain

from conftest import (
    WEDGE_FAMILY,
    all_complexes,
    are_isomorphic,
    corpus_nerve,
    counted_readers,
    brute_domination,
    brute_faces,
    brute_maximal_faces,
    brute_minimal_nonfaces,
    dense_complexes,
    nonface_scan_is_face,
    random_complex,
    small_complexes,
    union_find_component_count,
)

HEXAGON_MF = [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)]


def test_hexagon_construction():
    K = from_minimal_nonfaces(6, HEXAGON_MF)
    assert K == polygon_nerve(6)
    assert K.maximal_faces() == ((1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6))


def test_full_simplex_from_empty_ideal():
    K = from_minimal_nonfaces(4, [])
    assert K.maximal_faces() == ((1, 2, 3, 4),)
    assert K.dim == 3


def test_four_cycle_maximal_faces_match_brute_force():
    mf = [(1, 3), (2, 4)]
    K = from_minimal_nonfaces(4, mf)
    assert list(K.maximal_faces()) == brute_maximal_faces(4, mf)
    assert K.maximal_faces() == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_kbar2_maximal_faces():
    K = from_minimal_nonfaces(4, [(1, 3), (1, 4), (2, 4)])
    assert K.maximal_faces() == ((1, 2), (2, 3), (3, 4))


def test_constructor_errors():
    with pytest.raises(InputError):
        from_minimal_nonfaces(3, [(1, 4)])
    with pytest.raises(GhostVertexError):
        from_minimal_nonfaces(3, [(2,)])
    with pytest.raises(InputError):
        from_minimal_nonfaces(3, [(1, 1)])


def test_each_nonface_is_read_once():
    # an iterator holds its vertices only until it is read
    assert SimplicialComplex(3, [iter((1, 2))]).minimal_nonfaces == ((1, 2),)
    with pytest.raises(GhostVertexError, match="singletons must be faces"):
        SimplicialComplex(3, [iter((2,))])
    # a mapping is no list of vertices, inside the outer list or as it
    with pytest.raises(InputError, match="must be a list"):
        SimplicialComplex(3, [{1: 0, 2: 0}])
    with pytest.raises(InputError, match="must be a list"):
        SimplicialComplex(3, {(1, 2): 0})


def test_from_maximal_faces_requires_covering():
    with pytest.raises(GhostVertexError):
        from_maximal_faces(4, [(1, 2)])


def test_antichain_reduction_on_construction():
    K = SimplicialComplex(4, [(1, 2), (1, 2, 3)])
    assert K.minimal_nonfaces == ((1, 2),)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 7) - 1), max_size=40))
def test_antichain_matches_brute_force(masks):
    distinct = set(masks)
    for minimal in (True, False):
        def beaten(x, y):  # y keeps x out of the antichain
            return x != y and (x & y == y if minimal else x & y == x)

        expected = {x for x in distinct if not any(beaten(x, y) for y in distinct)}
        kept = _antichain(masks, minimal)
        assert len(kept) == len(set(kept)) and set(kept) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=0, max_value=(1 << 1100) - 1),
        st.sets(st.integers(min_value=0, max_value=1099), max_size=40).map(
            lambda bits: sum(1 << b for b in bits)
        ),
    )
)
def test_tuple_of_matches_a_per_position_scan(mask):
    # vertex v is bit v - 1; dense and sparse masks of up to 1,100 bits
    scan = tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)
    assert _tuple_of(mask) == scan
    assert _mask_of(scan, max(mask.bit_length(), 1)) == mask


def test_all_pairs_300_gon_builds():
    # 44,550 equal-sized non-faces: the reduction compares none of them
    m = 300
    pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 2, m + 1) if (a, b) != (1, m)]
    K = SimplicialComplex(m, pairs)
    assert len(K.minimal_nonfaces) == len(pairs) == 44550
    assert K.is_face((1, 2)) and not K.is_face((1, 3)) and K.is_face((1, m))


def test_round_trip_all_complexes_small():
    for m in range(0, 5):
        for K in all_complexes(m):
            back = from_maximal_faces(K.m, K.maximal_faces())
            assert back == K
            assert list(K.maximal_faces()) == brute_maximal_faces(m, K.minimal_nonfaces)


def test_round_trip_random_m5():
    rng = random.Random(11)
    for _ in range(80):
        K = random_complex(rng, 5)
        assert from_maximal_faces(5, K.maximal_faces()) == K
        assert brute_minimal_nonfaces(5, K.maximal_faces()) == sorted(K.minimal_nonfaces)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=7), dense_complexes(), st.sampled_from(WEDGE_FAMILY)))
def test_face_lattice_matches_brute_force(K):
    expected = brute_faces(K.m, K.minimal_nonfaces)
    for size in range(K.m + 2):
        level = [f for f in expected if len(f) == size]
        assert list(K.faces(size)) == level  # lex order included
        assert sorted(K.face_masks(size)) == sorted(sum(1 << (v - 1) for v in f) for f in level)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_complexes(min_m=1, max_m=7), dense_complexes(), st.sampled_from(WEDGE_FAMILY)),
    st.data(),
)
def test_induced_face_levels_match_brute_force(K, data):
    J = data.draw(st.sets(st.integers(1, K.m)))
    levels = list(K.induced_face_levels(sum(1 << (v - 1) for v in J)))
    assert all(levels)  # no trailing empty level
    faces = [
        tuple(v for v in range(1, K.m + 1) if f >> (v - 1) & 1) for level in levels for f in level
    ]
    assert all(f.bit_count() == size for size, level in enumerate(levels) for f in level)
    # the faces of K inside J, level by level, each level in lex order
    assert faces == [f for f in brute_faces(K.m, K.minimal_nonfaces) if set(f) <= J]


@settings(max_examples=100, deadline=None)
@given(small_complexes(min_m=1, max_m=7))
def test_is_face_memo_matches_nonface_scan(K):
    nonfaces = [set(nf) for nf in K.minimal_nonfaces]
    subsets = [
        J for size in range(K.m + 1) for J in itertools.combinations(range(1, K.m + 1), size)
    ]
    expected = {J: not any(nf <= set(J) for nf in nonfaces) for J in subsets}
    cold = SimplicialComplex(K.m, K.minimal_nonfaces)
    assert {J: cold.is_face(J) for J in subsets} == expected
    assert {J: cold.is_face(J) for J in subsets} == expected  # asked twice, the same answers
    assert {J: cold.is_face(list(J)) for J in subsets} == expected
    assert {J: cold.is_face(iter(J)) for J in subsets} == expected
    assert {J: cold.is_face(J) for J in subsets} == expected
    # answers already given must not let inputs that are not vertex tuples through
    for bad in [(0,), (K.m + 1,), (True,), (1, True), [True], (1.0,), ([1],), 5]:
        with pytest.raises(InputError):
            cold.is_face(bad)


# the entry points that read a list of vertices, each given one on the hexagon
VERTEX_TAKERS = {
    "SimplicialComplex": lambda K, vs: SimplicialComplex(K.m, [vs]),
    "from_maximal_faces": lambda K, vs: from_maximal_faces(K.m, [*K.maximal_faces(), vs]),
    "is_face": lambda K, vs: K.is_face(vs),
    "component_count": lambda K, vs: K.component_count(vs),
    "induced": lambda K, vs: K.induced(vs),
    "stellar_vertex_cut": lambda K, vs: K.stellar_vertex_cut(vs),
    "multigraded_betti": lambda K, vs: multigraded_betti(K, 0, vs),
    "bigraded_betti_table": lambda K, vs: bigraded_betti_table(K, [vs]),
    "component_basis": lambda K, vs: component_basis(K, vs, 3),
    "canonical_class": lambda K, vs: canonical_class(K, vs),
    "KoszulCochain.monomial": lambda K, vs: KoszulCochain.monomial(K, vs, ()),
    "RealCochain.monomial": lambda K, vs: RealCochain.monomial(K, (), vs),
    "MasseyClassInput": lambda K, vs: MasseyClassInput(vs, 0, KoszulCochain.zero(K)),
    "BuildingSet.from_sets": lambda K, vs: BuildingSet.from_sets(K.m, [vs]),
}


@pytest.mark.parametrize("vertex", ["a", None])
@pytest.mark.parametrize("call", VERTEX_TAKERS.values(), ids=VERTEX_TAKERS.keys())
def test_a_vertex_that_is_not_an_integer_is_an_input_error(call, vertex):
    # checked before the vertices are sorted, which would compare v with 1
    with pytest.raises(InputError, match="out of range"):
        call(polygon_nerve(6), [1, vertex])


@pytest.mark.parametrize("vertices", [[1, 1, 4], [1, 4, 1], [4, 4]])
@pytest.mark.parametrize("call", VERTEX_TAKERS.values(), ids=VERTEX_TAKERS.keys())
def test_a_vertex_set_that_repeats_a_vertex_is_an_input_error(call, vertices):
    # (1, 1, 4) used to be read as (1, 4): canonical_class answered with a class
    # on (1, 4) of total degree 3
    K = polygon_nerve(6)
    for listed in [vertices, iter(vertices)]:
        with pytest.raises(InputError, match="repeats a vertex"):
            call(K, listed)


@pytest.mark.parametrize(
    "vertices", [b"\x01\x04", bytearray(b"\x01\x04"), "14", {1: "a", 4: "b"}],
    ids=["bytes", "bytearray", "str", "dict"],
)
@pytest.mark.parametrize("call", VERTEX_TAKERS.values(), ids=VERTEX_TAKERS.keys())
def test_bytes_strings_and_mappings_are_not_vertex_lists(call, vertices):
    # bytes iterate to ints and a dict to its keys: is_face(b"\x01\x02") used to
    # answer for {1, 2}, and multigraded_betti(K, 1, {1: "a", 4: "b"}) used to return 1
    with pytest.raises(InputError, match="must be a list"):
        call(polygon_nerve(6), vertices)


def test_mask_builders_read_no_vertex_list(monkeypatch):
    # a builder hands the constructor masks; only induced reads a list, its own argument
    K, L = polygon_nerve(6), SimplicialComplex(3, [(1, 2, 3)])
    calls = counted_readers(monkeypatch, complexes, multiwedge)
    K.join(L)
    j_construction(K, (2, 1, 1, 3, 1, 1))
    assert calls["_mask_of"] == 0
    K.induced([1, 3, 5])
    assert calls["_mask_of"] == 1


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=8), dense_complexes(), st.sampled_from(WEDGE_FAMILY)))
def test_indexed_face_test_matches_nonface_scan(K):
    # every mask, faces and non-faces alike, against the scan of all minimal non-faces
    for mask in range(1 << K.m):
        assert K.is_face_mask(mask) == nonface_scan_is_face(K, mask)


def test_racing_first_reads_store_each_level_once(monkeypatch):
    # two threads held at a barrier inside _grow on the same level of a fresh
    # complex: each must store whole levels, so neither adds a level twice; the
    # 7-gon's empty level 3 is the highest one grown bottom-up
    K, untouched = polygon_nerve(7), polygon_nerve(7)
    expected = [untouched.face_masks(k) for k in range(K.m + 2)]
    grow = SimplicialComplex._grow
    barrier = threading.Barrier(2, timeout=30)

    def held(level, mask, rests):
        if level == (0,):
            barrier.wait()
        return grow(level, mask, rests)

    with monkeypatch.context() as patch:
        patch.setattr(SimplicialComplex, "_grow", staticmethod(held))
        threads = [threading.Thread(target=K.face_masks, args=(3,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not barrier.broken
    assert [K.face_masks(k) for k in range(K.m + 2)] == expected
    assert K.face_masks(3) == ()  # the 7-gon has no triangles


def test_a_shorter_racing_grower_keeps_the_longer_levels(monkeypatch):
    # one thread reads the empty store and is held inside _grow while another
    # grows and stores every level; the held thread's one level must not replace them
    K = polygon_nerve(7)
    grow = SimplicialComplex._grow
    entered, stored = threading.Event(), threading.Event()

    def held(level, mask, rests):
        if threading.current_thread().name == "short":
            entered.set()
            assert stored.wait(timeout=30)
        return grow(level, mask, rests)

    with monkeypatch.context() as patch:
        patch.setattr(SimplicialComplex, "_grow", staticmethod(held))
        short = threading.Thread(target=K.face_masks, args=(1,), name="short")
        short.start()
        assert entered.wait(timeout=30)
        full = [K.face_masks(k) for k in range(K.m + 2)]
        stored.set()
        short.join(timeout=60)
    # up to the empty size 3, above which no level is built; the held thread's
    # level 1 came second, so the stored one is still the first
    kept = K._cache["face_levels"][K._full_mask]
    assert kept == dict(enumerate(full[:4]))
    assert all(kept[size] is full[size] for size in kept)


def test_face_levels_grow_only_as_asked():
    # 2^40 faces in all: only the levels up to size 2 may be built
    assert len(SimplicialComplex.full_simplex(40).faces(2)) == 780


def test_level_one_is_refused_before_it_is_grown():
    # 2^17 singletons, counted from the mask instead of grown one by one
    K = SimplicialComplex(131072, [])
    with pytest.raises(CapacityError) as err:
        K.face_masks(1)
    assert err.value.guard == "face-level"
    assert "131072 faces of size 1" in str(err.value)
    with pytest.raises(CapacityError) as err:
        list(K.induced_face_levels(K._full_mask))
    assert err.value.guard == "face-level"
    assert len(K.face_masks(0)) == 1  # the empty face is still there


def _mask(vertices):
    return sum(1 << (v - 1) for v in vertices)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(small_complexes(min_m=1, max_m=8), dense_complexes(), st.sampled_from(WEDGE_FAMILY)),
    st.data(),
)
def test_levels_from_either_end_match_the_bottom_up_walk(K, data):
    # the levels of a fresh store, asked upper ones first, lower ones first or
    # mixed, against the levels of induced_face_levels, which keeps none
    mask = data.draw(st.integers(0, K._full_mask))
    expected = dict(enumerate(K.induced_face_levels(mask)))
    sizes = list(range(-1, mask.bit_count() + 3))
    order = data.draw(
        st.one_of(st.just(sizes[::-1]), st.just(sizes), st.permutations(sizes)), label="order"
    )
    fresh = SimplicialComplex(K.m, K.minimal_nonfaces)
    assert [fresh.face_masks(k, mask) for k in order] == [expected.get(k, ()) for k in order]
    kept = fresh._cache["face_levels"][mask]
    assert all(level == expected.get(size, ()) for size, level in kept.items())


def test_an_upper_level_of_a_sparse_complex_is_found_bottom_up():
    # C(40, 25) candidates are over the capacity, so level 25 of the 40-gon is
    # reached bottom-up, from its empty level 3
    K = polygon_nerve(40)
    assert K.face_masks(25) == ()
    levels = K._cache["face_levels"][K._full_mask]
    assert {size: len(level) for size, level in levels.items()} == {0: 1, 1: 40, 2: 40, 3: 0}


def test_upper_levels_skip_the_levels_below_them():
    # two disjoint 10-simplices: on J = {1, ..., 12} the levels 7-12 are read off
    # the complements of at most C(12, 5) candidates, with nothing grown below them
    K = SimplicialComplex(20, [(a, b) for a in range(1, 11) for b in range(11, 21)])
    J = _mask(range(1, 13))
    assert [len(K.face_masks(k, J)) for k in (12, 11, 10, 9, 8, 7)] == [0, 0, 1, 10, 45, 120]
    assert sorted(K._cache["face_levels"][J]) == [0, 7, 8, 9, 10, 11, 12]
    assert K.face_masks(10, J) == (_mask(range(1, 11)),)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=7), dense_complexes()))
def test_kept_cores_match_the_lowest_first_strip(K):
    def strip(mask):
        while v := K.dominated_vertex(mask):
            mask ^= 1 << (v - 1)
        return mask

    masks = range(K._full_mask + 1)
    expected = [strip(mask) for mask in masks]
    assert [K.strong_core(mask) for mask in masks] == expected
    assert [K.strong_core(mask) for mask in reversed(masks)] == expected[::-1]  # kept answers
    assert K._cache["cores"] == dict(zip(masks, expected))


def test_a_dropped_complex_leaves_nothing_cached():
    # the kept cores and face levels live on the complex, so nothing else holds it
    K = polygon_nerve(9)
    assert K.strong_core(K._full_mask) == K._full_mask
    assert K.strong_core(_mask([1, 2, 3, 5])) == _mask([3, 5])  # a path and a point
    assert len(K.face_masks(2)) == len(K.face_masks(2, _mask(range(1, 8)))) + 3
    gone = weakref.ref(K)
    del K
    gc.collect()
    assert gone() is None


@st.composite
def complexes_with_isolated_vertices(draw):
    """A small complex in which some vertices may form a non-face with every other vertex."""
    K = draw(small_complexes(min_m=1, max_m=8))
    isolated = draw(st.sets(st.integers(1, K.m), max_size=3))
    pairs = [(u, v) for u in isolated for v in range(1, K.m + 1) if u != v]
    return SimplicialComplex(K.m, [*K.minimal_nonfaces, *pairs])


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_complexes(min_m=1, max_m=8), complexes_with_isolated_vertices()), st.data())
def test_component_count_matches_union_find(K, data):
    assert K.component_count() == union_find_component_count(K)
    vertex = st.integers(1, K.m)
    subset = data.draw(st.sets(vertex))
    assert K.component_count(subset) == union_find_component_count(K, subset)
    listed = data.draw(st.lists(vertex, max_size=2 * K.m))
    for vertices in [listed, iter(listed)]:
        if len(set(listed)) < len(listed):
            with pytest.raises(InputError, match="repeats a vertex"):
                K.component_count(vertices)
        else:
            assert K.component_count(vertices) == union_find_component_count(K, listed)


def test_dominated_vertex_of_a_path():
    # the path 1 - 2 - 3 - 4: each leaf is dominated by its neighbour
    K = SimplicialComplex(4, [(1, 3), (1, 4), (2, 4)])
    assert K.dominated_vertex(_mask((1, 2, 3, 4))) == 1
    assert K.dominated_vertex(_mask((2, 3, 4))) == 2
    assert K.dominated_vertex(_mask((3, 4))) == 3
    assert K.dominated_vertex(_mask((1, 3))) == 0  # two points
    assert K.dominated_vertex(_mask((4,))) == 0
    assert K.dominated_vertex(0) == 0


def test_cone_apex_dominates_every_other_vertex():
    # the cone over the hexagon with apex 7: the hexagon itself has no
    # dominated vertex, and every hexagon vertex is dominated by the apex
    K = SimplicialComplex(7, HEXAGON_MF)
    apex = 1 << 6
    assert K.dominated_vertex(_mask(range(1, 7))) == 0
    for v in range(1, 7):
        rest = _mask(range(v, 7))
        assert K.dominated_vertex(rest | apex) == v
    assert K.dominated_vertex(apex) == 0


def test_cycles_have_no_dominated_vertex():
    for m in range(4, 10):
        K = polygon_nerve(m)
        assert K.dominated_vertex(_mask(range(1, m + 1))) == 0
        assert K.dominated_vertex(_mask(range(1, m))) == 1  # a path


def test_hollow_triangle_has_no_dominated_vertex():
    # no pair is a non-face, so a test that reads pairs only would collapse
    # vertex 1 onto 2; the 3-vertex non-face {1, 2, 3} forbids it
    K = SimplicialComplex(3, [(1, 2, 3)])
    assert K.dominated_vertex(0b111) == 0
    assert K.dominated_vertex(0b011) == 1  # an edge
    # the filled triangle: every vertex is dominated
    assert SimplicialComplex.full_simplex(3).dominated_vertex(0b111) == 1


@settings(max_examples=150, deadline=None)
@given(small_complexes(min_m=1, max_m=7), st.data())
def test_dominated_vertex_matches_maximal_faces(K, data):
    J = data.draw(st.sets(st.integers(1, K.m)))
    expected = brute_domination(K, J) if J else []
    mask = _mask(J)
    assert K.dominated_vertex(mask) == (expected[0][0] if expected else 0)
    # each vertex v of J is the lowest of the part of J from v up
    for v in J:
        upper = {u for u in J if u >= v}
        expected = brute_domination(K, upper)
        assert K.dominated_vertex(_mask(upper)) == (expected[0][0] if expected else 0)


def dominates_by_face_tests(K, v, w, mask):
    """The minimal non-face rule of ``dominated_vertex``, each (N - w) + v read by ``is_face_mask``."""
    low, apex = 1 << (v - 1), 1 << (w - 1)
    if v == w or low & ~mask or apex & ~mask or not K.is_face_mask(low | apex):
        return False
    return not any(
        nf & mask == nf and nf & apex and K.is_face_mask(nf ^ apex | low) for nf in K._mf_masks
    )


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_complexes(), st.sampled_from(WEDGE_FAMILY)), st.data())
def test_domination_matches_the_face_test_rule(K, data):
    # the larger non-faces are read from the stars of v and w, never by a face test
    mask = data.draw(st.integers(0, (1 << K.m) - 1))
    vertices = range(1, K.m + 1)
    # each vertex v of J is the lowest of the part of J from v up
    for v in vertices:
        upper = mask & -(1 << (v - 1))
        expected = [
            (v, w) for v, w in itertools.product(vertices, repeat=2)
            if dominates_by_face_tests(K, v, w, upper)
        ]
        assert K.dominated_vertex(upper) == (expected[0][0] if expected else 0)


def test_induced_hexagon_pair():
    K = polygon_nerve(6)
    sub = induced_subcomplex(K, (1, 4))
    assert sub.m == 2
    assert sub.minimal_nonfaces == ((1, 2),)  # two isolated points


def test_induced_identity_and_empty():
    K = polygon_nerve(6)
    assert induced_subcomplex(K, range(1, 7)) == K
    empty = induced_subcomplex(K, ())
    assert empty.m == 0
    assert empty.faces(0) == ((),)


def test_induced_hexagon_four_vertices():
    K = polygon_nerve(6)
    sub = induced_subcomplex(K, (1, 2, 4, 5))
    # vertices relabel to 1..4; surviving edges are {1,2} and {4,5}
    assert sub.faces(2) == ((1, 2), (3, 4))


def test_induced_nonfaces_are_restrictions():
    rng = random.Random(23)
    for _ in range(40):
        K = random_complex(rng, 6)
        verts = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 6))))
        sub = K.induced(verts)
        relabel = {v: i + 1 for i, v in enumerate(verts)}
        expected = sorted(
            tuple(relabel[v] for v in nf)
            for nf in K.minimal_nonfaces
            if set(nf) <= set(verts)
        )
        assert sorted(sub.minimal_nonfaces) == expected


def test_join_of_two_point_pairs_is_square():
    S0 = SimplicialComplex(2, [(1, 2)])
    assert join(S0, S0) == SimplicialComplex(4, [(1, 2), (3, 4)])
    assert are_isomorphic(join(S0, S0), polygon_nerve(4))


def test_join_identity():
    K = polygon_nerve(5)
    assert join(K, SimplicialComplex.empty()) == K
    assert join(SimplicialComplex.empty(), K) == K


def test_join_five_cycle_with_s0():
    K = join(polygon_nerve(5), SimplicialComplex(2, [(1, 2)]))
    assert K.m == 7
    expected = set(polygon_nerve(5).minimal_nonfaces) | {(6, 7)}
    assert set(K.minimal_nonfaces) == expected


def test_join_associative_up_to_relabeling():
    rng = random.Random(5)
    for _ in range(10):
        A, B, C = (random_complex(rng, rng.randint(1, 3)) for _ in range(3))
        assert join(join(A, B), C) == join(A, join(B, C))


def test_spec_level_functions_are_their_methods():
    K, L = corpus_nerve("p4"), SimplicialComplex(3, [(1, 2, 3)], labels=["a", "b", "c"])
    face = K.maximal_faces()[0]
    pairs = [
        (from_minimal_nonfaces(K.m, K.minimal_nonfaces, K.labels),
         SimplicialComplex(K.m, K.minimal_nonfaces, K.labels)),
        (from_maximal_faces(K.m, K.maximal_faces(), K.labels),
         SimplicialComplex.from_maximal_faces(K.m, K.maximal_faces(), K.labels)),
        (induced_subcomplex(K, [1, 3, 4, 7]), K.induced([1, 3, 4, 7])),
        (join(K, L), K.join(L)),
        (stellar_vertex_cut(K, face), K.stellar_vertex_cut(face)),
    ]
    for spec, method in pairs:
        assert spec == method and spec.labels == method.labels
    assert maximal_faces(K) == K.maximal_faces()
    assert structure_report(K) == K.structure_report() and structure_report(L) == L.structure_report()


def test_structure_report_examples():
    assert structure_report(polygon_nerve(6)) == (True, 1)
    assert structure_report(SimplicialComplex(4, [(1, 2, 3, 4)])) == (False, 3)
    K22 = SimplicialComplex(6, [(1, 2, 5), (3, 4, 6)])
    assert structure_report(K22) == (False, 2)
    assert structure_report(SimplicialComplex.full_simplex(3)).connectivity == math.inf
    assert structure_report(SimplicialComplex.full_simplex(3)).is_flag


def test_stellar_cut_segment():
    seg = SimplicialComplex(2, [])
    cut = stellar_vertex_cut(seg, (1, 2))
    assert cut == SimplicialComplex(3, [(1, 2)])  # path 1-3-2


def test_stellar_cut_pentagon_gives_hexagon():
    K = polygon_nerve(5)
    cut = stellar_vertex_cut(K, (1, 2))
    assert cut.m == 6
    assert are_isomorphic(cut, polygon_nerve(6))


def test_stellar_cut_requires_maximal_face():
    K = polygon_nerve(5)
    with pytest.raises(InputError):
        stellar_vertex_cut(K, (1, 3))
    with pytest.raises(InputError):
        stellar_vertex_cut(K, (1,))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_complexes(min_m=2, max_m=7), dense_complexes()), st.data())
def test_stellar_cut_matches_the_dualization_of_its_faces(K, data):
    # the cut writes its minimal non-faces down; dualizing its maximal faces (K's
    # without F, and F - v plus the new vertex for each v of F) gives the same complex
    cuttable = [f for f in K.maximal_faces() if len(f) >= 2]
    if not cuttable:
        return
    face = data.draw(st.sampled_from(cuttable))
    faces = [f for f in K.maximal_faces() if f != face]
    faces += [tuple(u for u in face if u != v) + (K.m + 1,) for v in face]
    expected = from_maximal_faces(K.m + 1, faces, K.labels + (str(K.m + 1),))
    cut = stellar_vertex_cut(K, face)
    assert cut == expected and cut.labels == expected.labels
    assert cut.maximal_faces() == expected.maximal_faces()


def test_stellar_cut_preserves_old_graph():
    # cutting a maximal face with >= 3 vertices removes only that face, so
    # the 1-skeleton on the old vertices is untouched; cutting a maximal
    # *edge* removes exactly that edge (the pentagon -> hexagon move)
    rng = random.Random(3)
    for _ in range(20):
        K = random_complex(rng, 5)
        for f in K.maximal_faces():
            if len(f) < 2:
                continue
            cut = stellar_vertex_cut(K, f)
            old = cut.induced(range(1, K.m + 1))
            if len(f) >= 3:
                assert old.faces(2) == K.faces(2)
            else:
                assert set(old.faces(2)) == set(K.faces(2)) - {f}
            assert old.faces(1) == K.faces(1)


def test_dualization_capacity():
    # maximal faces "all but the pair {2i - 1, 2i}" for i = 1..13: the
    # minimal non-faces pick one vertex of each pair, 2^13 of them
    facets = [[v for v in range(1, 27) if (v + 1) // 2 != i] for i in range(1, 14)]
    with pytest.raises(CapacityError) as err:
        from_maximal_faces(26, facets)
    assert err.value.guard == "minimal-nonfaces"
    assert "8192 candidate transversals after 12 of 13 sets" in str(err.value)
    assert len(from_maximal_faces(24, [f[:-2] for f in facets[:12]]).minimal_nonfaces) == 4096
    # and dually: the cross-polytope on 26 vertices has 2^13 maximal faces
    K = SimplicialComplex(26, [(2 * i - 1, 2 * i) for i in range(1, 14)])
    with pytest.raises(CapacityError) as err:
        K.maximal_faces()
    assert err.value.guard == "maximal-faces"
    assert len(SimplicialComplex(24, K.minimal_nonfaces[:12]).maximal_faces()) == 4096


def test_equality_ignores_labels():
    A = SimplicialComplex(3, [(1, 2)], labels=("a", "b", "c"))
    B = SimplicialComplex(3, [(1, 2)])
    assert A == B and hash(A) == hash(B)


def test_equal_complexes_built_four_ways_hash_and_compare_equal():
    K = SimplicialComplex(6, HEXAGON_MF)
    built = (
        SimplicialComplex.from_maximal_faces(6, K.maximal_faces()),
        SimplicialComplex(7, HEXAGON_MF).induced(range(1, 7)),
        SimplicialComplex.from_json_dict(json.loads(json.dumps(K.to_json_dict()))),
    )
    for other in built:
        assert other is not K and other == K and K == other
        assert hash(other) == hash(K)
    assert K == K and K._cache["hash"] == hash(K)  # hashed once, then kept
    assert K != SimplicialComplex(6, HEXAGON_MF[1:])


def test_json_round_trip():
    K = polygon_nerve(5)
    assert SimplicialComplex.from_json_dict(K.to_json_dict()) == K
    via_max = {"m": 5, "maximal_faces": [list(f) for f in K.maximal_faces()]}
    assert SimplicialComplex.from_json_dict(via_max) == K

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle.complexes import VERTEX_CAPACITY, SimplicialComplex, are_isomorphic
from moment_angle.errors import CapacityError, InputError
from moment_angle.families import polygon_nerve
from moment_angle.graphs import (
    BuildingSet,
    _component_nonfaces,
    Graph,
    associahedron_nerve,
    formality_classify,
    graphical_building_set,
    nested_set_complex,
)
from moment_angle.rational_linalg import reduced_cohomology_ranks

from conftest import CORPUS_GRAPHS


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(1, n + 1), 2)))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def test_graph_validation():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 4)])


def test_building_set_examples():
    assert len(graphical_building_set(complete_graph(4)).sets) == 15
    assert graphical_building_set(path_graph(3)).sets == (
        (1,),
        (1, 2),
        (1, 2, 3),
        (2,),
        (2, 3),
        (3,),
    )
    edgeless = Graph.from_edges(2, [])
    B = graphical_building_set(edgeless)
    assert B.sets == ((1,), (2,))
    assert not B.is_connected


def test_building_set_axiom_rejects_bad_family():
    with pytest.raises(InputError):
        BuildingSet.from_sets(3, [(1, 2), (2, 3)])  # union {1,2,3} missing
    # the first bad pair in sorted order is the one reported
    with pytest.raises(InputError, match=r"\(1, 2\) and \(2, 3\) intersect"):
        BuildingSet.from_sets(4, [(3, 4), (2, 3), (1, 2)])
    with pytest.raises(InputError):
        BuildingSet.from_sets(3, [(1.5, 2)])  # a vertex is an integer


def test_building_set_closure_random_graphs():
    rng = random.Random(79)
    for _ in range(20):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        B = graphical_building_set(Graph.from_edges(n, edges))
        family = set(B.sets)
        for s1, s2 in itertools.combinations(B.sets, 2):
            if set(s1) & set(s2):
                assert tuple(sorted(set(s1) | set(s2))) in family
        assert all((v,) in family for v in range(1, n + 1))


def test_nested_complex_identifications():
    assert are_isomorphic(associahedron_nerve(path_graph(3)), polygon_nerve(5))
    assert are_isomorphic(associahedron_nerve(cycle_graph(3)), polygon_nerve(6))
    S0 = SimplicialComplex(2, [(1, 2)])
    assert associahedron_nerve(path_graph(2)) == S0


def test_nerve_sizes():
    assert associahedron_nerve(path_graph(4)).m == 9
    assert associahedron_nerve(cycle_graph(4)).m == 12
    assert associahedron_nerve(complete_graph(4)).m == 14


def test_permutohedron_nerve_is_a_sphere():
    K = associahedron_nerve(complete_graph(4))
    assert K.m == 14
    assert K.dim == 2
    assert reduced_cohomology_ranks(K).ranks == (0, 0, 0, 1)
    assert len(K.maximal_faces()) == 24  # one facet per vertex of the polytope


def test_nerves_are_spheres_small():
    for G in [path_graph(2), path_graph(3), cycle_graph(3), path_graph(4),
              Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]), cycle_graph(4),
              complete_graph(4)]:
        K = associahedron_nerve(G)
        profile = reduced_cohomology_ranks(K)
        n = G.n - 1  # polytope dimension for connected G
        assert profile.rank(n - 1) == 1
        assert profile.total() == 1


def test_facet_correspondence():
    for G in [path_graph(3), path_graph(4), cycle_graph(4), complete_graph(4)]:
        B = graphical_building_set(G)
        K = nested_set_complex(B)
        non_maximal = sum(
            len([s for s in B.sets if set(s) < set(block)])
            for block in B.maximal_elements()
        )
        assert K.m == non_maximal
        # no ghost vertices: every element appears as a vertex of the nerve
        assert all(K.is_face((v,)) for v in range(1, K.m + 1))


def non_nested_collections(elements, family):
    """Every non-nested collection, not only the minimal ones, by the definition.

    Incomparable intersecting pairs, and every collection of two or more
    pairwise disjoint elements whose union lies in the family.
    """
    index = {s: i + 1 for i, s in enumerate(elements)}
    out = [
        (index[s1], index[s2])
        for s1, s2 in itertools.combinations(elements, 2)
        if set(s1) & set(s2) and not (set(s1) <= set(s2) or set(s2) <= set(s1))
    ]

    def disjoint(start, chosen, union):
        if len(chosen) >= 2 and tuple(sorted(union)) in family:
            out.append(tuple(index[s] for s in chosen))
        for idx in range(start, len(elements)):
            if not union & set(elements[idx]):
                disjoint(idx + 1, chosen + [elements[idx]], union | set(elements[idx]))

    disjoint(0, [], set())
    return out


def mask(s):
    return sum(1 << (v - 1) for v in s)


def block_elements(B, block):
    return sorted((s for s in B.sets if set(s) < set(block)), key=lambda s: (len(s), s))


@pytest.mark.parametrize(
    "G",
    [complete_graph(n) for n in range(3, 7)]
    + [Graph.from_edges(**CORPUS_GRAPHS[name]) for name in sorted(CORPUS_GRAPHS)],
    ids=[f"k{n}-complete" for n in range(3, 7)] + sorted(CORPUS_GRAPHS),
)
def test_component_nonfaces_are_listed_once(G):
    # each disjoint pair with union in the building set used to be listed twice
    B = graphical_building_set(G)
    family = set(B.sets)
    for block in B.maximal_elements():
        elements = block_elements(B, block)
        nonfaces = _component_nonfaces(
            {v: mask(s) for v, s in enumerate(elements, 1)}, set(map(mask, family))
        )
        assert len(nonfaces) == len(set(nonfaces))
        assert SimplicialComplex(len(elements), nonfaces) == SimplicialComplex(
            len(elements), non_nested_collections(elements, family)
        )


@st.composite
def building_sets(draw):
    """Random subsets plus the singletons, closed under unions of intersecting
    members: many are neither graphical nor flag."""
    ground = draw(st.integers(min_value=1, max_value=5))
    family = {(v,) for v in range(1, ground + 1)}
    family |= {
        tuple(sorted(s))
        for s in draw(st.lists(st.sets(st.integers(1, ground), min_size=1), max_size=6))
    }
    grown = True
    while grown:
        unions = {
            tuple(sorted(set(a) | set(b)))
            for a, b in itertools.combinations(family, 2)
            if set(a) & set(b)
        }
        grown = not unions <= family
        family |= unions
    return BuildingSet.from_sets(ground, family)


@settings(max_examples=300, deadline=None)
@given(building_sets())
def test_nested_set_complex_matches_the_definition(B):
    # the join over the blocks of the nerves listed by the definition, labels included
    family = set(B.sets)
    expected = SimplicialComplex.empty()
    for block in B.maximal_elements():
        elements = block_elements(B, block)
        expected = expected.join(SimplicialComplex(
            len(elements),
            non_nested_collections(elements, family),
            ["{" + ",".join(map(str, s)) + "}" for s in elements],
        ))
    K = nested_set_complex(B)
    assert K == expected
    assert K.labels == expected.labels


# sha256 of the canonical JSON of each nerve, recorded before the nerve code
# moved onto vertex masks; the star took about 20 s to build then
PINNED_NERVES = {
    "p10": (path_graph(10), 54, "da12362f6a8ff95d06af931cf0991b7a1fa807a0370aba469b426584b3b40dca"),
    "c10": (cycle_graph(10), 90, "4dc67a8e5df027ace1d7e000dd557b7339dade80478d68867ad5e07c8f4bfd91"),
    "star-k1-9": (
        Graph.from_edges(10, [(1, v) for v in range(2, 11)]),
        520,
        "2ea02f2dd08c7397968f9f1970dfe92ab36be47ded41ef11b893cac5985c63c2",
    ),
    "k9": (complete_graph(9), 510, "1db3b52be2c55da7ada15e5741d3d1aa2152a31fd7bfcc71a3b4c6a7507a8848"),
}


@pytest.mark.parametrize("G,m,digest", PINNED_NERVES.values(), ids=PINNED_NERVES.keys())
def test_pinned_nerves_at_the_graph_capacity(G, m, digest):
    K = associahedron_nerve(G)
    blob = json.dumps(K.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert K.m == m
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == digest


def test_join_compatibility_for_disjoint_graphs():
    G1 = path_graph(3)
    G2 = cycle_graph(3)
    union = Graph.from_edges(6, list(G1.edges) + [(a + 3, b + 3) for a, b in G2.edges])
    assert associahedron_nerve(union) == associahedron_nerve(G1).join(
        associahedron_nerve(G2)
    )


def test_single_vertex_components_are_join_identities():
    G = Graph.from_edges(3, [(2, 3)])
    K = associahedron_nerve(G)
    assert K == SimplicialComplex(2, [(1, 2)])  # only the edge contributes


def test_cube_and_simplex_building_sets():
    # simplex building set: singletons plus the full set -> boundary of a simplex
    B = BuildingSet.from_sets(3, [(1, 2, 3)])
    assert nested_set_complex(B) == SimplicialComplex(3, [(1, 2, 3)])
    # square building set: {1},{2},{3},{12},{123} -> 4-cycle
    B = BuildingSet.from_sets(3, [(1, 2), (1, 2, 3)])
    K = nested_set_complex(B)
    assert are_isomorphic(K, polygon_nerve(4))


def test_capacity_guard():
    with pytest.raises(CapacityError):
        graphical_building_set(Graph.from_edges(11, []))


def test_vertex_count_guard():
    with pytest.raises(CapacityError) as err:
        Graph.from_edges(VERTEX_CAPACITY + 1, [])
    assert err.value.guard == "vertex-count"
    assert Graph.from_edges(VERTEX_CAPACITY, []).n == VERTEX_CAPACITY


def test_components_of_a_relabelled_union_of_small_graphs():
    # 750 each of edges, 3-paths and triangles plus 1,501 isolated vertices,
    # relabelled so that components interleave, against a union-find count
    rng = random.Random(5)
    n = 7501
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    blocks = [[(1, 2)], [(3, 4), (4, 5)], [(6, 7), (7, 8), (6, 8)]]
    edges = [
        (perm[base + a - 1], perm[base + b - 1])
        for base in range(0, 7500, 10)
        for block in blocks
        for a, b in block
    ]
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    roots = {}
    for v in range(1, n + 1):
        roots.setdefault(find(v), []).append(v)
    G = Graph.from_edges(n, edges)
    assert G.components() == tuple(sorted(tuple(vs) for vs in roots.values()))
    verdict = formality_classify(G)
    assert verdict.formal and verdict.witness is None
    kinds = [c.kind for c in verdict.components]
    assert [kinds.count(k) for k in ("vertex", "edge", "path3", "cycle3")] == [1501, 750, 750, 750]


def test_formality_formal_cases():
    verdict = formality_classify(Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)]))
    assert verdict.formal
    assert verdict.diffeo_type == ("(S^3 x S^4)^#5", "S^3")
    assert verdict.witness is None
    verdict = formality_classify(cycle_graph(3))
    assert verdict.diffeo_type == ("(S^3 x S^5)^#9 # (S^4 x S^4)^#8",)
    verdict = formality_classify(Graph.from_edges(1, []))
    assert verdict.formal and verdict.diffeo_type == ()


def test_formality_path4_nonformal():
    verdict = formality_classify(path_graph(4))
    assert not verdict.formal
    assert verdict.witness is not None
    assert verdict.witness.triple.nontrivial
    assert verdict.witness.triple.strictly_defined


def test_formality_k4_uses_long_profile():
    verdict = formality_classify(complete_graph(4))
    assert not verdict.formal
    w = verdict.witness
    assert w is not None
    assert tuple(len(s) for s in w.supports) == (4, 2, 4)
    assert w.value.total_degree == 12
    assert not w.value.is_zero
    assert len(w.triple.indeterminacy_basis) == 0

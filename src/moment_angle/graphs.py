"""Graphical building sets, nerves of graph-associahedra, and the formality classifier.

A building set on a ground set is a family of nonempty subsets containing all
singletons and closed under unions of intersecting members.  Its nerve
complex has one vertex per non-maximal element, and a set of elements spans a
face when it is *nested*: any two members are comparable or disjoint, and no
two-or-more pairwise disjoint members have their union in the building set.
Disconnected building sets contribute the join of their components' nerves
(single-vertex components contribute the empty complex, the join identity).
Sets are vertex masks.  A disjoint collection of two or more members is never
extended by an element whose union with one member is in the building set:
that pair is a non-face, so nothing containing it is minimal, flag or not.

For a simple graph the building set consists of the connected induced
subgraph vertex sets, and the nerve is the boundary sphere of the
graph-associahedron.  The moment-angle manifold over a graph-associahedron
is formal exactly when every component of the graph is a vertex, an edge, a
path on 3 vertices, or a triangle; otherwise a nontrivial strictly defined
triple Massey product exists and is attached as a witness.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .complexes import (
    VERTEX_CAPACITY, SimplicialComplex, _antichain, _as_list, _bits, _mask_of, _tuple_of
)
from .errors import CapacityError, InputError
from .massey import MasseyReport, search_triple_products

GRAPH_CAPACITY = 10

FACTOR_EDGE = "S^3"
FACTOR_PATH3 = "(S^3 x S^4)^#5"
FACTOR_CYCLE3 = "(S^3 x S^5)^#9 # (S^4 x S^4)^#8"


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n."""

    n: int
    edges: tuple  # sorted tuple of sorted pairs

    @classmethod
    def from_edges(cls, n, edges):
        if type(n) is not int or n < 1:  # bool is an int subclass: not a count
            raise InputError(f"graph needs a positive integer vertex count, got n={n!r}")
        if n > VERTEX_CAPACITY:
            raise CapacityError(
                "vertex-count", f"{n} vertices; capacity is {VERTEX_CAPACITY} vertices per graph"
            )
        clean = set()
        for e in _as_list(edges, "graph edges"):
            e = _as_list(e, "a graph edge")
            if len(e) != 2 or any(type(x) is not int for x in e):
                raise InputError(f"graph edge must be a pair of integers, got {e!r}")
            a, b = e
            if not (1 <= a <= n and 1 <= b <= n):
                raise InputError(f"edge {tuple(e)} outside 1..{n}")
            if a == b:
                raise InputError(f"loop at vertex {a}")
            clean.add((min(a, b), max(a, b)))
        return cls(n, tuple(sorted(clean)))

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict) or "n" not in data:
            raise InputError("graph JSON must be an object with an \"n\" field")
        return cls.from_edges(data["n"], data.get("edges", ()))

    @cached_property
    def adjacency(self):
        """The neighbours of each vertex v at index v (index 0 is empty), built once per graph."""
        adj = [[] for _ in range(self.n + 1)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(map(tuple, adj))

    def components(self):
        """Vertex sets of the connected components, sorted."""
        adj = self.adjacency
        seen = [False] * (self.n + 1)
        comps = []
        for v in range(1, self.n + 1):  # by lowest vertex, so comps come out sorted
            if seen[v]:
                continue
            seen[v] = True
            stack, comp = [v], [v]
            while stack:
                for u in adj[stack.pop()]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
                        comp.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)


@dataclass(frozen=True)
class BuildingSet:
    """Family of subsets of 1..ground containing the singletons and closed
    under unions of intersecting members."""

    ground: int
    sets: tuple  # sorted tuple of sorted tuples

    @classmethod
    def from_sets(cls, ground, sets):
        family = {1 << v for v in range(ground)} | {_mask_of(s, ground) for s in sets}
        if 0 in family:
            raise InputError(f"building-set element () outside 1..{ground}")
        named = sorted((_tuple_of(x), x) for x in family)  # the first bad pair is reported
        for (s1, a), (s2, b) in itertools.combinations(named, 2):
            if a & b and a | b not in family:
                raise InputError(
                    f"not a building set: {s1} and {s2} intersect but their union is missing"
                )
        return cls(ground, tuple(s for s, _ in named))

    def maximal_elements(self):
        """The maximal members; they partition the ground set."""
        masks = (_mask_of(s, self.ground) for s in self.sets)
        return tuple(sorted(map(_tuple_of, _antichain(masks, minimal=False))))


def _connected_sets(G):
    """The masks of the vertex sets that induce a connected subgraph of G."""
    if G.n > GRAPH_CAPACITY:
        raise CapacityError("graph-size", f"graphs are limited to {GRAPH_CAPACITY} vertices")
    neighbours = [sum(1 << (u - 1) for u in vs) for vs in G.adjacency]  # of vertex v at index v
    found, frontier = set(), {1 << v for v in range(G.n)}
    while frontier:  # the connected sets one vertex larger than the last round's
        found |= frontier
        grown = set()
        for s in frontier:
            reach = 0
            for v in _bits(s):
                reach |= neighbours[v.bit_length()]
            grown.update(s | u for u in _bits(reach & ~s))
        frontier = grown - found
    return found


def graphical_building_set(G):
    """All vertex subsets inducing a connected subgraph."""
    return BuildingSet(G.n, tuple(sorted(map(_tuple_of, _connected_sets(G)))))


def _component_nonfaces(elements, family):
    """Non-nested collections among one block's elements, as masks of nerve vertices.

    ``elements`` maps each nerve vertex bit to its element's mask, ``family``
    holds the masks of the building set.  Every minimal collection is listed:
    the incomparable intersecting pairs, one AND test each, and, from
    ``grow``, each once, the pairwise disjoint collections whose union is in
    the family.  ``grow`` extends a collection of two or more members by no
    element that forms with one of them a disjoint pair whose union is in
    the family: that pair is a non-face, so nothing containing it is minimal.
    The antichain pass of ``SimplicialComplex`` drops what else is not minimal.
    """
    items = list(elements.items())
    nonfaces = [
        u | v
        for i, (u, a) in enumerate(items, 1)
        for v, b in items[i:]
        if a & b not in (0, a, b)
    ]

    def grow(start, chosen, vertices, union):
        for idx in range(start, len(items)):
            v, s = items[idx]
            if union & s or (len(chosen) >= 2 and any(c | s in family for c in chosen)):
                continue
            if chosen and union | s in family:
                nonfaces.append(vertices | v)
            else:
                grow(idx + 1, (*chosen, s), vertices | v, union | s)

    grow(0, (), 0, 0)
    return nonfaces


def _nested_set_nerve(family):
    """The nerve complex of the nestohedron: faces are the nested sets.

    ``family`` maps each member's mask to its vertex tuple.  One nerve per maximal
    element, joined; a block's vertices are its other members by (size, lex).
    """
    nonfaces, labels = [], []
    for block in sorted(_antichain(family, minimal=False), key=lambda x: x & -x):  # lowest first
        inner = sorted(
            (x for x in family if x & block and x != block),
            key=lambda x: (x.bit_count(), family[x]),
        )
        vertices = {1 << i: x for i, x in enumerate(inner, len(labels))}
        nonfaces.extend(_component_nonfaces(vertices, family))
        labels.extend("{" + ",".join(map(str, family[x])) + "}" for x in inner)
    return SimplicialComplex._from_masks(len(labels), nonfaces, tuple(labels))


def nested_set_complex(B):
    """The nerve complex of the nestohedron of the building set B (``_nested_set_nerve``)."""
    return _nested_set_nerve({_mask_of(s, B.ground): s for s in B.sets})


def associahedron_nerve(G):
    """Nerve of the graph-associahedron of G (components contribute a join)."""
    return _nested_set_nerve({x: _tuple_of(x) for x in _connected_sets(G)})


# -- formality ---------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentVerdict:
    vertices: tuple
    kind: str  # vertex | edge | path3 | cycle3 | other
    factor: Optional[str]


@dataclass(frozen=True)
class FormalityVerdict:
    formal: bool
    components: tuple
    diffeo_type: tuple  # sphere/connected-sum factors, one per non-point component
    witness: Optional[MasseyReport]


def _edge_count(G, component):
    """Edges of G inside a connected component: each neighbour of its vertices lies in it."""
    return sum(len(G.adjacency[v]) for v in component) // 2


def _classify_component(G, vertices):
    k = len(vertices)
    e = _edge_count(G, vertices)
    if k == 1:
        return ComponentVerdict(vertices, "vertex", None)
    if k == 2:
        return ComponentVerdict(vertices, "edge", FACTOR_EDGE)
    if k == 3 and e == 2:
        return ComponentVerdict(vertices, "path3", FACTOR_PATH3)
    if k == 3 and e == 3:
        return ComponentVerdict(vertices, "cycle3", FACTOR_CYCLE3)
    return ComponentVerdict(vertices, "other", None)


def formality_classify(G):
    """Formality of the moment-angle manifold over the graph-associahedron.

    Formal iff every component is a vertex, an edge, a 3-path, or a
    3-cycle; the manifold is then a product of the listed factors.  Otherwise
    a triple-product witness is attached: classes of dimension 3 when some
    big component is not complete on 4 vertices, else the (5, 3, 5) profile.
    """
    comps = [_classify_component(G, vs) for vs in G.components()]
    formal = all(c.kind != "other" for c in comps)
    if formal:
        return FormalityVerdict(
            formal=True,
            components=tuple(comps),
            diffeo_type=tuple(c.factor for c in comps if c.factor is not None),
            witness=None,
        )
    nerve = associahedron_nerve(G)
    big = [c for c in comps if c.kind == "other"]
    if any(_edge_count(G, c.vertices) != math.comb(len(c.vertices), 2) for c in big):
        witness = search_triple_products(nerve, require_strict=True)
    else:
        witness = search_triple_products(nerve, profile=(5, 3, 5), require_strict=True)
    return FormalityVerdict(
        formal=False, components=tuple(comps), diffeo_type=(), witness=witness
    )

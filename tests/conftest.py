"""Shared oracles and generators for the test suite.

The brute-force functions here are deliberately independent of the library's
own algorithms: faces are found by scanning all vertex subsets, so they can
arbitrate the dualization and induced-subcomplex code paths.
"""

import functools
import itertools
import json
import random
from pathlib import Path

from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex
from moment_angle.graphs import Graph, associahedron_nerve
from moment_angle.koszul import KoszulCochain
from moment_angle.rational_linalg import SparseMatrix
from moment_angle.real_cochains import RealCochain


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json"
CORPUS_GRAPHS = json.loads(CORPUS.read_text())["graphs"]


@functools.lru_cache(maxsize=None)
def corpus_nerve(name):
    """The graph-associahedron nerve of a benchmark corpus graph."""
    return associahedron_nerve(Graph.from_edges(**CORPUS_GRAPHS[name]))


def union_find_component_count(K, vertices=None):
    """Slow-path components of the 1-skeleton of K on ``vertices`` (default all).

    Union-find over every vertex pair, each tested as a face of K; the
    bitmask flood fill of ``SimplicialComplex.component_count`` is compared
    with it.
    """
    if vertices is None:
        vertices = range(1, K.m + 1)
    verts = sorted(set(vertices))
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(verts, 2):
        if K.is_face((a, b)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in verts})


def differential_matrix(cochain_type, K, source, target_index):
    """Slow-path matrix of a cochain model's differential on monomial bases.

    Column j holds the signs of ``cochain_type.differential_terms`` of the
    monomial ``source[j]`` over K; ``target_index`` maps every monomial the
    images reach to its row.  The mask builds of both models are compared
    with it.
    """
    entries = {}
    for col, mono in enumerate(source):
        for target, sign in cochain_type.differential_terms(K, mono):
            entries[(target_index[target], col)] = sign
    return SparseMatrix(len(target_index), len(source), entries)


def brute_faces(m, nonfaces):
    """All faces by scanning every subset for non-face containment."""
    nf = [set(x) for x in nonfaces]
    out = []
    for size in range(m + 1):
        for cand in itertools.combinations(range(1, m + 1), size):
            cset = set(cand)
            if not any(x <= cset for x in nf):
                out.append(cand)
    return out


def brute_maximal_faces(m, nonfaces):
    faces = brute_faces(m, nonfaces)
    sets = [set(f) for f in faces]
    return sorted(
        f for f, fs in zip(faces, sets) if not any(fs < other for other in sets)
    )


def brute_minimal_nonfaces(m, maximal_faces):
    maxsets = [set(f) for f in maximal_faces]
    out = []
    for size in range(2, m + 1):
        for cand in itertools.combinations(range(1, m + 1), size):
            cset = set(cand)
            if any(cset <= f for f in maxsets):
                continue
            if any(set(prev) <= cset for prev in out):
                continue
            out.append(cand)
    return sorted(out)


def all_complexes(m):
    """Every complex on m vertices without ghost vertices (antichains of non-faces)."""
    pool = [
        frozenset(c)
        for size in range(2, m + 1)
        for c in itertools.combinations(range(1, m + 1), size)
    ]
    results = []

    def grow(start, chosen):
        results.append(SimplicialComplex(m, [tuple(sorted(c)) for c in chosen]))
        for idx in range(start, len(pool)):
            cand = pool[idx]
            if any(cand <= c or c <= cand for c in chosen):
                continue
            grow(idx + 1, chosen + [cand])

    grow(0, [])
    return results


def random_complex(rng, m):
    """A random antichain of non-faces of size >= 2 on m vertices."""
    count = rng.randint(0, m + 2) if m >= 2 else 0
    nonfaces = []
    for _ in range(count):
        size = rng.randint(2, m)
        nonfaces.append(tuple(sorted(rng.sample(range(1, m + 1), size))))
    return SimplicialComplex(m, nonfaces)


@st.composite
def small_complexes(draw, min_m=3, max_m=5):
    """Hypothesis strategy: a complex on min_m..max_m vertices with random non-faces."""
    m = draw(st.integers(min_m, max_m))
    if m < 2:
        return SimplicialComplex(m)
    nonfaces = draw(
        st.lists(st.sets(st.integers(1, m), min_size=2, max_size=m), max_size=m + 2)
    )
    return SimplicialComplex(m, [tuple(sorted(f)) for f in nonfaces])


def random_complexes(seed, count, max_m=6, min_m=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(random_complex(rng, rng.randint(min_m, max_m)))
    return out


def random_koszul_cochain(rng, K, terms=3):
    out = KoszulCochain.zero(K)
    for _ in range(terms):
        verts = list(range(1, K.m + 1))
        u = tuple(v for v in verts if rng.random() < 0.4)
        rest = [v for v in verts if v not in u]
        v_part = tuple(v for v in rest if rng.random() < 0.4)
        if not K.is_face(v_part):
            continue
        out = out + KoszulCochain.monomial(K, u, v_part, rng.randint(-3, 3))
    return out


def random_real_cochain(rng, K, terms=3):
    out = RealCochain.zero(K)
    for _ in range(terms):
        verts = list(range(1, K.m + 1))
        u = tuple(v for v in verts if rng.random() < 0.4)
        if not K.is_face(u):
            continue
        rest = [v for v in verts if v not in u]
        t_part = tuple(v for v in rest if rng.random() < 0.4)
        out = out + RealCochain.monomial(K, u, t_part, rng.randint(-3, 3))
    return out


def homogeneous_pieces(cochain, kind="koszul"):
    """Split a cochain into its homogeneous-degree pieces."""
    cls = KoszulCochain if kind == "koszul" else RealCochain
    by_degree = {}
    for mono, coeff in cochain.terms.items():
        by_degree.setdefault(mono.degree, {})[mono] = coeff
    return [cls(cochain.complex, terms) for _, terms in sorted(by_degree.items())]

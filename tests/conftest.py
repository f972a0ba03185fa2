"""Shared oracles and generators for the test suite.

The brute-force functions here are deliberately independent of the library's
own algorithms: faces are found by scanning all vertex subsets, so they can
arbitrate the dualization and induced-subcomplex code paths.
"""

import bisect
import functools
import itertools
import json
import random
from pathlib import Path

from hypothesis import strategies as st

from moment_angle.complexes import SimplicialComplex
from moment_angle.errors import CapacityError, InputError, NotACocycleError
from moment_angle.families import FamilySpec, degree_prescribed_complex, family_complex
from moment_angle.graphs import Graph, associahedron_nerve
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.massey import _shift_products
from moment_angle.rational_linalg import (
    CohomologyProfile,
    SparseMatrix,
    coboundary_matrix,
    cohomology_ranks,
)
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


def nonface_scan_is_face(K, mask):
    """Slow-path face test: no minimal non-face of K lies inside the bitmask ``mask``.

    Scans every minimal non-face; ``SimplicialComplex.is_face_mask``, which
    reads the non-faces through each vertex of the mask, is compared with it.
    """
    return all(nf & mask != nf for nf in K._mf_masks)


def mask_pair(pair):
    """The key (u, w) of the tuple pair (S, T): vertex v is bit v - 1."""
    return tuple(sum(1 << (v - 1) for v in part) for part in pair)


def tuple_pair(key):
    """The tuple pair (S, T) of the key (u, w), both parts ascending."""
    return tuple(tuple(v + 1 for v in range(part.bit_length()) if part >> v & 1) for part in key)


def tuple_terms(cochain):
    """The terms of a cochain keyed by tuple pairs (S, T)."""
    return {tuple_pair(key): c for key, c in cochain.terms.items()}


# -- tuple forms of both cochain models: the slow path the mask code is checked against


def tuple_shuffle_sign(a, b):
    """Sign of the shuffle merging two disjoint ascending tuples of odd generators."""
    inversions = sum(1 for x in a for y in b if y < x)
    return -1 if inversions & 1 else 1


def koszul_tuple_differential_terms(K, u, v):
    """Terms of d(u_S v_T) on tuples: dropping u_i from 0-based position k of
    the u-block and adding v_i contributes (-1)^k, where T + i is a face."""
    for pos, i in enumerate(u):
        new_v = tuple(sorted(v + (i,)))
        if K.is_face(new_v):
            yield (u[:pos] + u[pos + 1 :], new_v), -1 if pos & 1 else 1


def real_tuple_differential_terms(K, u, t):
    """Terms of d(u_S t_T) on tuples: moving t_i into the u-part, at 0-based
    position k of the new u-block, contributes (-1)^k, where S + i is a face."""
    for j, i in enumerate(t):
        pos = bisect.bisect_left(u, i)
        new_u = u[:pos] + (i,) + u[pos:]
        if K.is_face(new_u):
            yield (new_u, t[:j] + t[j + 1 :]), -1 if pos & 1 else 1


def koszul_tuple_product(K, s1, v1, s2, v2):
    """(sign, (S, T)) of u_S1 v_T1 * u_S2 v_T2 on tuples, or None when it is zero."""
    if set(s1 + v1) & set(s2 + v2):
        return None
    new_v = tuple(sorted(v1 + v2))
    if not K.is_face(new_v):
        return None
    return tuple_shuffle_sign(s1, s2), (tuple(sorted(s1 + s2)), new_v)


def real_tuple_product(K, s1, t1, s2, t2):
    """(sign, (S, T)) of u_S1 t_T1 * u_S2 t_T2 on tuples, or None when it is zero."""
    if set(t1) & set(s2) or set(s1) & set(s2):
        return None
    union = tuple(sorted(set(s1) | set(s2)))
    if not K.is_face(union):
        return None
    tpart = tuple(sorted((set(t1) | set(t2)) - set(union)))
    return tuple_shuffle_sign(s1, s2), (union, tpart)


TUPLE_MODELS = {
    KoszulCochain: (koszul_tuple_differential_terms, koszul_tuple_product),
    RealCochain: (real_tuple_differential_terms, real_tuple_product),
}


def tuple_differential(model, K, terms):
    """d of a cochain given as {(S, T): coefficient}, by the model's tuple rule."""
    differential_terms, _ = TUPLE_MODELS[model]
    out = {}
    for (a, b), c in terms.items():
        for target, sign in differential_terms(K, a, b):
            out[target] = out.get(target, 0) + sign * c
    return {key: c for key, c in out.items() if c}


def tuple_product(model, K, x, y):
    """The product of two cochains given as {(S, T): coefficient}, by the model's tuple rule."""
    _, product = TUPLE_MODELS[model]
    out = {}
    for (s1, t1), c1 in x.items():
        for (s2, t2), c2 in y.items():
            merged = product(K, s1, t1, s2, t2)
            if merged is not None:
                sign, key = merged
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {key: c for key, c in out.items() if c}


def differential_matrix(model, K, source, target_index):
    """Slow-path matrix of a cochain model's differential on tuple bases.

    Column j holds the signs of the model's tuple differential terms of the
    monomial ``source[j]``, a tuple pair (S, T), over K; ``target_index``
    maps every tuple pair the images reach to its row.  The mask builds of
    both models are compared with it.
    """
    differential_terms, _ = TUPLE_MODELS[model]
    entries = {}
    for col, (a, b) in enumerate(source):
        for target, sign in differential_terms(K, a, b):
            entries[(target_index[target], col)] = sign
    return SparseMatrix(len(target_index), len(source), entries)


def is_coboundary(comp, cochain):
    """Slow-path test whether a cocycle of the Koszul component ``comp`` is a coboundary.

    Its residual modulo the coboundaries, the test ``class_vector`` makes,
    read without the cohomology basis.
    """
    if not cochain.differential().is_zero():
        raise NotACocycleError(f"d({cochain!r}) != 0")
    return not any(comp.matrix_from_below().residual(comp.coordinates(cochain)))


def koszul_cup_is_zero(a, b):
    """Slow-path test whether the product of two ``MasseyClassInput``s is zero in the Koszul model."""
    support = tuple(sorted(a.support + b.support))
    comp = component_basis(a.representative.complex, support, a.total_degree + b.total_degree)
    return is_coboundary(comp, a.representative.bar() * b.representative)


def koszul_indeterminate(input):
    """Slow-path test whether a triple's indeterminacy is nonzero, without its value.

    True at the first shift product that is not a coboundary in the value's
    component; the 1-skeleton rule of ``massey.search_triple_products`` is
    compared with it.
    """
    target = component_basis(
        input.complex, input.window_support(1, 3), input.window_total_degree(1, 3)
    )
    return not all(is_coboundary(target, prod) for prod in _shift_products(input))


def component_monomials(comp):
    """The basis of a Koszul component as tuple pairs (S, T), in row order.

    Read back from ``cochain_from_coordinates`` of the coordinates 1..n,
    whose coefficient at a monomial is its row + 1.
    """
    c = comp.cochain_from_coordinates(range(1, len(comp) + 1))
    return [tuple_pair(key) for key, _ in sorted(c.terms.items(), key=lambda item: item[1])]


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


def brute_domination(K, J):
    """Pairs (v, w) of J, w != v, with w in every maximal face of K_J through v, by brute force."""
    J = sorted(J)
    local = brute_maximal_faces(len(J), K.induced(J).minimal_nonfaces)
    facets = [{J[i - 1] for i in f} for f in local]
    return [(v, w) for v in J for w in J if w != v and all(w in f for f in facets if v in f)]


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


@st.composite
def dense_complexes(draw, min_m=4, max_m=7):
    """Hypothesis strategy: a complex with many non-faces of 2 or 3 vertices.

    Its induced subcomplexes often strong-collapse onto a core of two or
    more vertices, which the few large non-faces of ``small_complexes``
    seldom leave.
    """
    m = draw(st.integers(min_m, max_m))
    nonfaces = draw(
        st.lists(
            st.sets(st.integers(1, m), min_size=2, max_size=3), min_size=m // 2, max_size=2 * m
        )
    )
    return SimplicialComplex(m, [tuple(sorted(f)) for f in nonfaces])


# multiwedges of the paper's family on at most 12 vertices
WEDGE_FAMILY = [
    family_complex(FamilySpec(name, n=n, s=s))
    for name in ("kns", "kbarns")
    for n, s in [(2, 1), (2, 2), (3, 1), (2, 5), (3, 2), (3, 3), (4, 2), (6, 1)]
] + [degree_prescribed_complex(ks) for ks in [(3, 5, 3), (5, 3, 3), (3, 3, 3, 3), (7, 5)]]


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


def homogeneous_pieces(cochain):
    """Split a cochain into its homogeneous-degree pieces."""
    cls = type(cochain)
    by_degree = {}
    for key, coeff in cochain.terms.items():
        degree = cls(cochain.complex, {key: 1}).degree()
        by_degree.setdefault(degree, {})[key] = coeff
    return [cls(cochain.complex, terms) for _, terms in sorted(by_degree.items())]


def oracle_classes(comp):
    """Slow-path cohomology basis of a Koszul component, read on its own J.

    The greedy choice of ``ComponentBasis.cohomology_basis``, read in one
    batch and without the core: the residuals of every canonical cocycle
    under J's own ``matrix_from_below`` are the columns of one matrix, and
    the basis is the cocycles at its pivot columns, as many as J's own
    ``cohomology_dimension``.  Returns the basis and the matrix whose
    columns are the kept residuals (None when the basis is empty).
    """
    hdim = comp.cohomology_dimension()
    if not hdim:
        return (), None
    below = comp.matrix_from_below()
    cocycles = tuple(comp.cocycle_basis())
    residuals = [below.residual(z) for z in cocycles]
    pivots = SparseMatrix(len(comp), 0).with_columns(residuals).pivot_columns()
    assert len(pivots) == hdim
    span = SparseMatrix(len(comp), 0).with_columns([residuals[i] for i in pivots])
    return tuple(cocycles[i] for i in pivots), span


def oracle_class_vector(comp, cochain):
    """Slow-path class coordinates of a cocycle in ``oracle_classes``' basis, read on J."""
    basis, span = oracle_classes(comp)
    if not basis:
        return ()
    x = span.solve(comp.matrix_from_below().residual(comp.coordinates(cochain)))
    assert x is not None
    return x


CROSS_CHECK_PRIMES = (2, 3)


def rank_mod_p(A, p):
    """Rank over the prime field GF(p) (p = 2 or 3): an elimination independent of the package's.

    The prime-field rank can drop below the rational rank (torsion), never
    exceed it, so agreement on torsion-free inputs validates the exact path.
    """
    if p not in CROSS_CHECK_PRIMES:
        raise InputError(f"cross-check primes are {CROSS_CHECK_PRIMES}, got {p}")
    rows = []
    for row in A.rows_as_dicts():
        reduced = {}
        for c, v in row.items():
            num = int(v.numerator) % p
            den = int(v.denominator) % p
            val = (num * pow(den, -1, p)) % p
            if val:
                reduced[c] = val
        if reduced:
            rows.append(reduced)
    rank = 0
    for col in range(A.ncols):
        piv_idx = next((i for i, r in enumerate(rows) if col in r), None)
        if piv_idx is None:
            continue
        piv = rows.pop(piv_idx)
        inv = pow(piv[col], -1, p)
        piv = {c: (v * inv) % p for c, v in piv.items()}
        survivors = []
        for r in rows:
            f = r.get(col)
            if f:
                for c, v in piv.items():
                    nv = (r.get(c, 0) - f * v) % p
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
            if r:
                survivors.append(r)
        rows = survivors
        rank += 1
    return rank


def reduced_cohomology_ranks_mod_p(K, p):
    """Reduced cohomology ranks of K over GF(p), from the package's coboundaries."""
    dims = [len(level) for level in itertools.takewhile(bool, map(K.face_masks, itertools.count()))]
    dranks = [rank_mod_p(coboundary_matrix(K, d), p) for d in range(-1, len(dims) - 2)]
    return CohomologyProfile(cohomology_ranks(dims, dranks))


# the full table builds and keeps every component, up to 3^m basis faces: on the
# full simplex (2-vCPU Xeon, Python 3.11.7, Fraction backend) m = 11 took 2.8-3.0 s
# and 167 MB peak RSS, m = 12 took 8.1-8.5 s and 498 MB; at m = 10, 80 % of the
# memory kept is the matrices' entries and forward eliminations (tracemalloc)
KOSZUL_TABLE_CAPACITY = 12


def koszul_bigraded_ranks(K):
    """Cohomology ranks of the Koszul model by bidegree (i, j): the Hochster cross-oracle.

    Sums the cohomology dimension of every component (J, t) over all 2^m
    vertex subsets, so it shares no code with the Hochster walk; above
    KOSZUL_TABLE_CAPACITY vertices it fails loudly rather than truncating.
    """
    if K.m > KOSZUL_TABLE_CAPACITY:
        raise CapacityError(
            "koszul-table",
            f"full Koszul table needs 2^{K.m} subsets; "
            f"capacity is m <= {KOSZUL_TABLE_CAPACITY}",
        )
    out = {}
    for size in range(K.m + 1):
        for J in itertools.combinations(range(1, K.m + 1), size):
            for t in range(size, 2 * size + 1):
                dim = component_basis(K, J, t).cohomology_dimension()
                if dim:
                    key = (2 * size - t, size)
                    out[key] = out.get(key, 0) + dim
    return out

"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run standalone with ``pytest tests/test_acceptance.py -s``.  Every criterion
pins its stated wall-clock budget and asserts exact equalities (class-level
comparisons are up to a nonzero rational scalar where noted).
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from moment_angle.complexes import SimplicialComplex, are_isomorphic, stellar_vertex_cut
from moment_angle.families import FamilySpec, family_complex, polygon_nerve
from moment_angle.graphs import (
    Graph,
    associahedron_nerve,
    formality_classify,
    graphical_building_set,
)
from moment_angle.hochster import bigraded_betti_table, multigraded_betti
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.massey import (
    MasseyClassInput,
    MasseyInput,
    degree_prescribed_input,
    massey_product,
    search_triple_products,
    verify_family_massey,
)
from moment_angle.rational_linalg import reduced_cohomology_ranks
from moment_angle.real_cochains import doubling_complex, real_cohomology_ranks

from conftest import koszul_bigraded_ranks, random_complexes


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number} ({elapsed:.2f}s / budget {budget_seconds}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_1_hexagon_betti():
    with criterion(1, 1.0, "hexagon Betti numbers and Poincare vector"):
        hexn = polygon_nerve(6)
        table = bigraded_betti_table(hexn)
        assert table.rank(1, 2) == 9 == len(hexn.minimal_nonfaces)
        assert table.zk_poincare == (1, 0, 0, 9, 16, 9, 0, 0, 1)


def test_criterion_2_pentagon_betti():
    with criterion(2, 1.0, "pentagon Poincare vector (connected sum of 5 sphere products)"):
        table = bigraded_betti_table(polygon_nerve(5))
        assert table.zk_poincare == (1, 0, 0, 5, 5, 0, 0, 1)


def test_criterion_3_hexagon_triple():
    with criterion(3, 1.0, "hexagon triple product: defined, full-line value set"):
        hexn = polygon_nerve(6)
        classes = [
            MasseyClassInput((j, j + 3), 0, KoszulCochain.monomial(hexn, (j + 3,), (j,)))
            for j in (1, 2, 3)
        ]
        report = massey_product(MasseyInput(hexn, classes))
        assert report.status == "defined"
        ranks = {(r.start, r.end): (r.rank_below, r.rank_at) for r in report.conditions.rows}
        assert ranks[(1, 2)] == (1, 0) and ranks[(2, 3)] == (1, 0)
        target = component_basis(hexn, tuple(range(1, 7)), 8)
        assert target.cohomology_dimension() == 1
        assert len(report.triple.indeterminacy_basis) == 1
        assert report.triple.contains_zero and not report.triple.nontrivial


def test_criterion_4_family_products():
    with criterion(4, 120.0, "family products strict and nonzero, sub-products zero"):
        for n, s in itertools.product((2, 3, 4), (1, 2)):
            family_report = verify_family_massey(n, s)
            report = family_report.report
            assert report.status == "defined-strict"
            assert not report.value.is_zero
            for sub in family_report.subproducts:
                assert sub.status == "defined-strict" and sub.value_is_zero
            if (n, s) == (3, 1):
                K = report.value.cochain.complex
                target = KoszulCochain.monomial(K, (2, 3, 4, 5), (1, 6))
                comp = component_basis(K, report.value.support, report.value.total_degree)
                tv = comp.class_vector(target)
                vv = report.value.class_coordinates
                scalars = {a / b for a, b in zip(vv, tv) if b != 0}
                assert len(scalars) == 1 and 0 not in scalars
                assert all(a == 0 for a, b in zip(vv, tv) if b == 0)


def test_criterion_5_multigraded_transfer():
    with criterion(5, 30.0, "full-support Betti numbers of the wedged closed family vanish"):
        for n in (2, 3):
            for s in (2, 3):
                K = family_complex(FamilySpec("kbarns", n=n, s=s))
                full = tuple(range(1, n * (s + 1) + 1))
                assert multigraded_betti(K, 2 * n - 2, full) == 0
                assert multigraded_betti(K, 2 * n - 1, full) == 0


def test_criterion_6_oracle_equivalence():
    with criterion(6, 300.0, "Koszul-model ranks match the subsetwise cochain sums"):
        complexes = random_complexes(seed=2024, count=100, max_m=6, min_m=3)
        doubling_checked = 0
        for K in complexes:
            table = bigraded_betti_table(K)
            assert koszul_bigraded_ranks(K) == table.bigraded
            real_ranks = real_cohomology_ranks(K)
            for p, r in enumerate(real_ranks):
                expected = table.rk_poincare[p] if p < len(table.rk_poincare) else 0
                assert r == expected
            assert all(
                r == 0 for r in table.rk_poincare[len(real_ranks):]
            )
            if K.m <= 4 and doubling_checked < 5:
                doubling_checked += 1
                doubled = real_cohomology_ranks(doubling_complex(K))
                by_degree = {}
                for size in range(K.m + 1):
                    for J in itertools.combinations(range(1, K.m + 1), size):
                        for t in range(size, 2 * size + 1):
                            d = component_basis(K, J, t).cohomology_dimension()
                            if d:
                                by_degree[t] = by_degree.get(t, 0) + d
                for p, r in enumerate(doubled):
                    assert by_degree.get(p, 0) == r
        assert doubling_checked >= 3


def test_criterion_7_degree_prescription():
    with criterion(7, 60.0, "prescribed odd class dimensions give strict nontrivial triples"):
        for ks in [(3, 3, 3), (3, 5, 3), (5, 3, 5)]:
            report = massey_product(degree_prescribed_input(ks))
            assert report.status == "defined-strict"
            assert not report.value.is_zero
            assert report.value.total_degree == sum(ks) - 1


def _connected_graph_classes(max_n=4):
    """Connected isomorphism classes with <= max_n vertices."""

    def canon(n, edges):
        best = None
        for perm in itertools.permutations(range(1, n + 1)):
            mapped = tuple(
                sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in edges)
            )
            if best is None or mapped < best:
                best = mapped
        return (n, best)

    seen = {}
    for n in range(1, max_n + 1):
        pool = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            G = Graph.from_edges(n, edges)
            if len(G.components()) != 1:
                continue
            seen.setdefault(canon(n, edges), G)
    return list(seen.values())


def test_criterion_8_graph_associahedra():
    with criterion(8, 300.0, "nerve identifications and the formality classifier"):
        k4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        path3 = Graph.from_edges(3, [(1, 2), (2, 3)])
        tri = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        path4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        cyc4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

        assert are_isomorphic(associahedron_nerve(path3), polygon_nerve(5))
        assert are_isomorphic(associahedron_nerve(tri), polygon_nerve(6))
        pe3 = associahedron_nerve(k4)
        assert pe3.m == 14 == len(graphical_building_set(k4).sets) - 1
        assert reduced_cohomology_ranks(pe3).ranks == (0, 0, 0, 1)
        assert associahedron_nerve(path4).m == 9
        assert associahedron_nerve(cyc4).m == 12

        classes = _connected_graph_classes(4)
        assert len(classes) == 10  # 1 + 1 + 2 + 6 isomorphism classes
        formal_found = 0
        nonformal_found = 0
        for G in classes:
            verdict = formality_classify(G)
            expected_formal = G.n <= 3
            assert verdict.formal == expected_formal
            if expected_formal:
                formal_found += 1
                assert search_triple_products(associahedron_nerve(G)) is None
            else:
                nonformal_found += 1
                witness = verdict.witness
                assert witness is not None and witness.triple.nontrivial
                if G.n == 4 and len(G.edges) == 6:  # the complete graph
                    assert search_triple_products(pe3) is None
                    assert tuple(len(s) for s in witness.supports) == (4, 2, 4)
                    assert len(witness.triple.indeterminacy_basis) == 0
                    assert witness.value.total_degree == 12
                    assert not witness.value.is_zero
                else:
                    assert tuple(len(s) for s in witness.supports) == (2, 2, 2)
                    assert witness.triple.strictly_defined
        assert formal_found == 4 and nonformal_found == 6


def test_criterion_9_vertex_cut_persistence():
    with criterion(9, 60.0, "triple-product witnesses persist under every vertex cut"):
        pent = polygon_nerve(5)
        assert search_triple_products(pent) is None
        for f in pent.maximal_faces():
            assert search_triple_products(stellar_vertex_cut(pent, f)) is None
        nerve = associahedron_nerve(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
        assert search_triple_products(nerve) is not None
        for f in nerve.maximal_faces():
            assert search_triple_products(stellar_vertex_cut(nerve, f)) is not None


def test_criterion_10_property_suites_standalone():
    with criterion(10, 300.0, "property suites pass standalone"):
        suite = Path(__file__).resolve().parent / "test_properties.py"
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", str(suite), "-q"],
            capture_output=True,
            text=True,
            cwd=str(suite.parent.parent),
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_angle import massey
from moment_angle.cli import _massey_report_dict
from moment_angle.complexes import SimplicialComplex, _tuple_of, stellar_vertex_cut
from moment_angle.errors import CapacityError, InputError, VerificationError
from moment_angle.families import polygon_nerve
from moment_angle.graphs import Graph, associahedron_nerve
from moment_angle.koszul import KoszulCochain, component_basis
from moment_angle.massey import (
    CellFailure,
    MasseyClassInput,
    MasseyInput,
    _window_rank,
    build_defining_system,
    canonical_class,
    degree_prescribed_input,
    family_massey_input,
    massey_product,
    massey_value,
    search_triple_products,
    strict_conditions_check,
    triple_value_set,
    verify_family_massey,
)
from moment_angle.rational_linalg import SparseMatrix, reduced_cohomology_rank

from conftest import (
    CORPUS_GRAPHS,
    corpus_nerve,
    koszul_cup_is_zero,
    koszul_indeterminate,
    small_complexes,
)

SEARCH_PROFILES = [(3, 3, 3), (3, 4, 3), (5, 3, 5)]


def hexagon_input():
    hexn = polygon_nerve(6)
    classes = [
        MasseyClassInput((j, j + 3), 0, KoszulCochain.monomial(hexn, (j + 3,), (j,)))
        for j in (1, 2, 3)
    ]
    return MasseyInput(hexn, classes)


def test_input_validation():
    hexn = polygon_nerve(6)
    good = KoszulCochain.monomial(hexn, (4,), (1,))
    with pytest.raises(InputError):
        MasseyInput(hexn, [MasseyClassInput((1, 4), 0, good)])  # k >= 2
    with pytest.raises(InputError):
        MasseyInput(
            hexn,
            [
                MasseyClassInput((1, 4), 0, good),
                MasseyClassInput((4, 6), 0, KoszulCochain.monomial(hexn, (6,), (4,))),
            ],
        )  # overlapping supports
    with pytest.raises(InputError):
        MasseyInput(
            hexn,
            [
                MasseyClassInput((1, 4), 1, good),  # wrong degree bookkeeping
                MasseyClassInput((2, 5), 0, KoszulCochain.monomial(hexn, (5,), (2,))),
            ],
        )


def test_each_class_checks_its_representative_once(monkeypatch):
    hexn = polygon_nerve(6)
    with pytest.raises(InputError, match="not a cocycle"):  # {1, 2} is an edge: d u_1 v_2 != 0
        MasseyClassInput((1, 2), 0, KoszulCochain.monomial(hexn, (1,), (2,)))
    inp = hexagon_input()
    calls = []
    real = KoszulCochain.differential

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(KoszulCochain, "differential", counting)
    again = MasseyInput(inp.complex, inp.classes)  # the classes were checked when made
    assert calls == [] and again.classes == inp.classes


def test_hexagon_triple_is_defined_but_not_strict():
    inp = hexagon_input()
    ds = build_defining_system(inp)
    assert not isinstance(ds, CellFailure)
    ds.verify()
    cell13 = ds.cell(1, 3)
    assert cell13.multidegree() == (1, 2, 4, 5)
    assert cell13.degree() == 5
    report = massey_product(inp)
    assert report.status == "defined"
    table = report.conditions
    assert not table.uniqueness_holds and table.solvability_holds
    fails = {(r.start, r.end): r.rank_below for r in table.rows}
    assert fails[(1, 2)] == 1 and fails[(2, 3)] == 1


def test_hexagon_value_set_is_the_full_line():
    inp = hexagon_input()
    triple = triple_value_set(inp)
    target = component_basis(inp.complex, tuple(range(1, 7)), 8)
    assert target.cohomology_dimension() == 1
    assert len(triple.indeterminacy_basis) == 1
    assert triple.contains_zero and not triple.nontrivial and not triple.strictly_defined


def test_hexagon_two_defining_systems():
    # perturbing cell (1,3) by a cocycle generating its component switches the
    # value between zero and a generator of the top group
    inp = hexagon_input()
    plain = massey_value(build_defining_system(inp))
    comp13 = component_basis(inp.complex, (1, 2, 4, 5), 5)
    gen = comp13.cochain_from_coordinates(comp13.cohomology_basis()[0])
    perturbed = massey_value(build_defining_system(inp, {(1, 3): gen}))
    values = {plain.is_zero, perturbed.is_zero}
    assert values == {True, False}


def test_cup_pair_on_four_cycle():
    K = polygon_nerve(4)
    classes = [
        MasseyClassInput((1, 3), 0, KoszulCochain.monomial(K, (3,), (1,))),
        MasseyClassInput((2, 4), 0, KoszulCochain.monomial(K, (4,), (2,))),
    ]
    report = massey_product(MasseyInput(K, classes))
    assert report.status == "defined-strict"
    assert not report.value.is_zero
    assert report.value.total_degree == 6


def test_corner_choice_does_not_move_the_class():
    rng = random.Random(67)
    inp = hexagon_input()
    ds = build_defining_system(inp)
    base = massey_value(ds)
    comp = component_basis(inp.complex, tuple(range(1, 7)), 7)
    for _ in range(5):
        coords = [rng.randint(-2, 2) for _ in range(len(comp))]
        corner = comp.cochain_from_coordinates(coords)
        assert massey_value(ds, corner=corner).class_coordinates == base.class_coordinates


def test_family_strict_conditions_hold():
    for n, s in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        inp = family_massey_input(n, s)
        if n >= 3:
            table = strict_conditions_check(inp)
            assert table.strict_guarantee
        report = massey_product(inp)
        assert report.status == "defined-strict"
        assert not report.value.is_zero


@pytest.mark.parametrize("degrees", [(0, 0, 0), (0, -1, 1), (-3, 0, 0), (5, 5, 5), (-1, -1, -1)])
def test_window_ranks_match_induced_complexes(degrees):
    # zero representatives pass validation in reduced degrees -1 .. |support| - 1
    # only; window degrees can still fall below -1, where every rank is zero
    K = polygon_nerve(6)

    def classes():
        return [
            MasseyClassInput((j, j + 3), d, KoszulCochain.zero(K))
            for j, d in zip((1, 2, 3), degrees)
        ]

    if not all(-1 <= d <= 1 for d in degrees):
        with pytest.raises(InputError):  # a class checks its own degree when made
            MasseyInput(K, classes())
        return
    inp = MasseyInput(K, classes())
    table = strict_conditions_check(inp)
    for row in table.rows:
        d = inp.window_reduced_degree(row.start, row.end)
        induced = K.induced(row.support)
        assert row.rank_below == reduced_cohomology_rank(induced, d - 1)
        assert row.rank_at == reduced_cohomology_rank(induced, d)
    if degrees == (0, 0, 0):
        assert not table.uniqueness_holds  # the comparison covers nonzero ranks


def test_window_rank_is_zero_outside_the_cohomology_range():
    K = polygon_nerve(6)
    for support in [(), (1, 4), (1, 2, 4, 5)]:
        for degree in [-3, -2, len(support), len(support) + 4]:
            assert _window_rank(K, support, degree) == 0
    assert _window_rank(K, (1, 4), 0) == 1


def test_zero_representatives_outside_the_cohomology_range_are_rejected():
    # the hexagon with reduced degrees (-3, 0, 0) used to be reported defined-strict
    K = polygon_nerve(6)
    for bad in [-3, -2, 2, 5]:
        with pytest.raises(InputError, match="reduced degree"):
            classes = [
                MasseyClassInput((j, j + 3), d, KoszulCochain.zero(K))
                for j, d in zip((1, 2, 3), (bad, 0, 0))
            ]
            MasseyInput(K, classes)


@pytest.mark.parametrize("support", [(1, 1, 4), (4, 1, 4), (2, 2)])
def test_a_support_that_repeats_a_vertex_is_rejected(support):
    # (1, 1, 4) used to be accepted with total degree 4, counting vertex 1 twice
    K = polygon_nerve(6)
    for rep in [KoszulCochain.zero(K), KoszulCochain.monomial(K, (4,), (1,))]:
        with pytest.raises(InputError, match="repeats a vertex"):
            MasseyClassInput(support, 0, rep)
    assert MasseyClassInput((1, 4), 0, KoszulCochain.zero(K)).total_degree == 3


def test_strict_conditions_need_k3():
    K = polygon_nerve(4)
    classes = [
        MasseyClassInput((1, 3), 0, KoszulCochain.monomial(K, (3,), (1,))),
        MasseyClassInput((2, 4), 0, KoszulCochain.monomial(K, (4,), (2,))),
    ]
    with pytest.raises(InputError):
        strict_conditions_check(MasseyInput(K, classes))


def test_family_value_for_n3_s1():
    fr = verify_family_massey(3, 1)
    val = fr.report.value
    K = fr.report.value.cochain.complex
    target = KoszulCochain.monomial(K, (2, 3, 4, 5), (1, 6))
    comp = component_basis(K, val.support, val.total_degree)
    tv = comp.class_vector(target)
    # equality up to a nonzero rational scalar
    assert len(val.class_coordinates) == 1
    assert val.class_coordinates[0] != 0 and tv[0] != 0


def test_family_degree_bookkeeping():
    fr = verify_family_massey(3, 2)
    assert fr.report.value.total_degree == 3 * 5 - 3 + 2  # m(j) = 2s+1 = 5
    assert fr.report.value.support == tuple(sorted(
        v for cl in family_massey_input(3, 2).classes for v in cl.support
    ))


def test_family_subproducts_strictly_zero():
    fr = verify_family_massey(4, 1)
    orders = sorted({sub.order for sub in fr.subproducts})
    assert orders == [2, 3]
    assert all(sub.status == "defined-strict" and sub.value_is_zero for sub in fr.subproducts)


def test_family_capacity():
    with pytest.raises(CapacityError):
        verify_family_massey(9, 1)
    with pytest.raises(InputError):
        family_massey_input(1, 1)


@pytest.mark.parametrize("n", [6, 8])
def test_family_products_up_to_the_order_capacity_certify(n):
    # verify_family_massey raises unless the product is strict and nonzero and
    # every proper consecutive window is strictly zero
    fr = verify_family_massey(n, 1)
    assert fr.report.order == n and fr.report.status == "defined-strict"
    assert not fr.report.value.is_zero
    assert len(fr.subproducts) == sum(n - order + 1 for order in range(2, n))


def test_greedy_determinism_under_perturbation():
    # under the vanishing conditions the value class ignores all greedy choices
    rng = random.Random(71)
    inp = family_massey_input(3, 1)
    base = massey_value(build_defining_system(inp))
    k = inp.k
    for _ in range(6):
        perturbations = {}
        for span in range(2, k):
            for i in range(1, k + 2 - span):
                j = i + span
                support = inp.window_support(i, j - 1)
                degree = inp.window_total_degree(i, j - 1) - 1
                comp = component_basis(inp.complex, support, degree)
                coords = [0] * len(comp)
                for vec in comp.cocycle_basis():
                    w = rng.randint(-2, 2)
                    coords = [c + w * v for c, v in zip(coords, vec)]
                perturbations[(i, j)] = comp.cochain_from_coordinates(coords)
        ds = build_defining_system(inp, perturbations)
        assert not isinstance(ds, CellFailure)
        assert massey_value(ds).class_coordinates == base.class_coordinates


def test_value_set_is_affine_coset():
    # sampled perturbations never leave representative + indeterminacy span
    rng = random.Random(73)
    inp = hexagon_input()
    triple = triple_value_set(inp)
    from moment_angle.rational_linalg import solve_linear

    basis = triple.indeterminacy_basis
    hdim = len(triple.representative.class_coordinates)
    span = SparseMatrix(
        hdim,
        len(basis),
        {(r, c): v for c, vec in enumerate(basis) for r, v in enumerate(vec) if v},
    )
    for _ in range(8):
        perturbations = {}
        for cell, window in (((1, 3), (1, 2)), ((2, 4), (2, 3))):
            support = inp.window_support(*window)
            degree = inp.window_total_degree(*window) - 1
            comp = component_basis(inp.complex, support, degree)
            coords = [0] * len(comp)
            for vec in comp.cocycle_basis():
                w = rng.randint(-2, 2)
                coords = [c + w * v for c, v in zip(coords, vec)]
            perturbations[cell] = comp.cochain_from_coordinates(coords)
        value = massey_value(build_defining_system(inp, perturbations))
        diff = [
            a - b
            for a, b in zip(value.class_coordinates, triple.representative.class_coordinates)
        ]
        assert solve_linear(span, diff) is not None


def test_degree_prescribed_instances():
    for ks in [(3, 3, 3), (3, 5, 3), (5, 3, 5)]:
        report = massey_product(degree_prescribed_input(ks))
        assert report.status == "defined-strict"
        assert not report.value.is_zero
        assert report.value.total_degree == sum(ks) - 1


def test_search_on_path4_associahedron():
    nerve = associahedron_nerve(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
    witness = search_triple_products(nerve)
    assert witness is not None
    assert witness.triple.nontrivial
    # repeat runs return the identical witness
    assert search_triple_products(nerve).supports == witness.supports


@pytest.mark.parametrize(
    "small, big, profile",
    [
        ("p4", {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}, (3, 3, 3)),
        ("p4", {"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]}, (3, 3, 3)),
        ("k4", {"n": 5, "edges": list(itertools.combinations(range(1, 6), 2))}, (5, 3, 5)),
    ],
    ids=["p4-into-p5", "p4-into-c6", "k4-into-k5"],
)
def test_strict_witness_lifts_to_a_graph_holding_it(small, big, profile):
    # the nerve of an induced subgraph on vertices 1..4 is the full subcomplex
    # of the larger nerve on its connected subsets, and Z of a full subcomplex
    # is a retract: a strict nontrivial triple on it stays one on the larger nerve
    K = corpus_nerve(small)
    witness = search_triple_products(K, profile, require_strict=True)
    big = associahedron_nerve(Graph.from_edges(**big))
    position = {label: v for v, label in enumerate(big.labels, start=1)}
    supports = [[position[K.labels[v - 1]] for v in J] for J in witness.supports]
    report = massey_product(MasseyInput(big, [canonical_class(big, J) for J in supports]))
    assert report.status == massey.STATUS_DEFINED_STRICT and report.triple.nontrivial


def test_search_none_on_pentagon_and_hexagon():
    assert search_triple_products(polygon_nerve(5)) is None
    assert search_triple_products(polygon_nerve(6)) is None  # defined but trivial


def test_search_capacity_guard():
    nerve = associahedron_nerve(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
    with pytest.raises(CapacityError):
        search_triple_products(nerve, capacity=1)


def test_search_candidate_scan_is_bounded():
    # C(6, 2) = 15 supports of size 2: the scan stops at the capacity and says so
    with pytest.raises(CapacityError, match="3 of the 15 candidate supports") as info:
        search_triple_products(polygon_nerve(6), capacity=3)
    assert info.value.guard == "triple-search"
    # with room for the 45 supports of the 10-gon, the triple guard fires instead
    with pytest.raises(CapacityError, match="examined more than 45 candidate triples"):
        search_triple_products(polygon_nerve(10), capacity=45)


def reference_search(K, profile):
    """Unpruned search: the first witness and the first strict witness, or None.

    The same lexicographic enumeration as ``search_triple_products``, with
    ``canonical_class`` and ``triple_value_set`` run on every disjoint triple.
    """
    sizes = [d - 1 for d in profile]
    candidates = {
        size: [
            J
            for J in itertools.combinations(range(1, K.m + 1), size)
            if K.component_count(J) == 2
        ]
        for size in set(sizes)
    }
    found = {False: None, True: None}  # keyed by require_strict
    for J1, J2, J3 in itertools.product(*(candidates[size] for size in sizes)):
        if len(set(J1 + J2 + J3)) < len(J1 + J2 + J3):
            continue
        inp = MasseyInput(K, [canonical_class(K, J) for J in (J1, J2, J3)])
        ds = build_defining_system(inp)
        if isinstance(ds, CellFailure):
            continue
        triple = triple_value_set(inp, ds)
        if not triple.nontrivial:
            continue
        for strict in (False, True):
            if found[strict] is None and (triple.strictly_defined or not strict):
                found[strict] = ((J1, J2, J3), _massey_report_dict(massey_product(inp)))
        if found[True] is not None:
            break
    return found


def assert_search_matches_reference(K, profile):
    expected = reference_search(K, profile)
    for strict in (False, True):
        witness = search_triple_products(K, profile, require_strict=strict)
        if expected[strict] is None:
            assert witness is None
        else:
            assert witness is not None
            assert (witness.supports, _massey_report_dict(witness)) == expected[strict]


@st.composite
def induced_corpus_nerves(draw):
    """A corpus nerve restricted to 6..9 of its vertices, or whole if smaller.

    Random complexes on m <= 7 vertices almost never pass the prune; these
    often do, and often hold a witness.
    """
    K = corpus_nerve(draw(st.sampled_from(sorted(CORPUS_GRAPHS))))
    if K.m <= 6:
        return K
    vertices = draw(st.sets(st.integers(1, K.m), min_size=6, max_size=9))
    return K.induced(sorted(vertices))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_complexes(max_m=7), induced_corpus_nerves()),
    st.sampled_from(SEARCH_PROFILES),
)
def test_pruned_search_matches_unpruned_search(K, profile):
    assert_search_matches_reference(K, profile)


@pytest.mark.parametrize("profile", SEARCH_PROFILES, ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("name", sorted(CORPUS_GRAPHS))
def test_pruned_search_matches_unpruned_search_on_corpus_nerves(name, profile):
    # the K4 nerve with (3, 3, 3) has 60,450 disjoint triples and no witness
    assert_search_matches_reference(corpus_nerve(name), profile)


def test_search_prunes_empty_targets_before_building_classes(monkeypatch):
    # every one of the 9,150 triples of the 10-gon has H~^1(K_J) = 0
    calls = []
    real = massey.canonical_class

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(massey, "canonical_class", counting)
    assert search_triple_products(polygon_nerve(10)) is None
    assert calls == []


def test_canonical_class_requires_nonzero_group():
    K = polygon_nerve(5)
    with pytest.raises(InputError):
        canonical_class(K, (1, 2))  # an edge: connected, no degree-0 class


def test_defining_system_relations_reverified():
    inp = family_massey_input(4, 1)
    ds = build_defining_system(inp)
    for res in ds.residuals().values():
        assert res.is_zero()


def test_witness_persists_under_stellar_cuts():
    nerve = associahedron_nerve(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]))
    assert search_triple_products(nerve) is not None
    cut = stellar_vertex_cut(nerve, nerve.maximal_faces()[0])
    assert search_triple_products(cut) is not None


def matrix_path_value_set(inp, ds):
    """(indeterminacy basis, contains zero) of a triple, read through fresh matrices.

    The reference for ``triple_value_set``: the shift vectors kept are the
    pivot columns of the matrix whose columns they are, and zero is in the
    value set when the value's class solves against the kept columns.
    """
    value = massey_value(ds)
    target = component_basis(inp.complex, value.support, value.total_degree)
    a1, a3 = inp.classes[0].representative, inp.classes[2].representative
    vectors = []
    for (start, end), on_left in (((2, 3), True), ((1, 2), False)):
        support = inp.window_support(start, end)
        comp = component_basis(inp.complex, support, inp.window_total_degree(start, end) - 1)
        for coords in comp.cohomology_basis():
            z = comp.cochain_from_coordinates(coords)
            vec = target.class_vector(a1 * z if on_left else z * a3)
            if any(vec):
                vectors.append(vec)
    hdim = len(value.class_coordinates)
    if not vectors:
        return (), value.is_zero
    pivots = SparseMatrix(hdim, 0).with_columns(vectors).pivot_columns()
    basis = tuple(vectors[c] for c in pivots)
    span = SparseMatrix(hdim, 0).with_columns(basis)
    return basis, span.solve(value.class_coordinates) is not None


def test_hexagon_value_set_matches_the_matrix_path():
    inp = hexagon_input()
    ds = build_defining_system(inp)
    triple = triple_value_set(inp, ds)
    assert (triple.indeterminacy_basis, triple.contains_zero) == matrix_path_value_set(inp, ds)


def defined_canonical_triples(K):
    """(input, defining system) of every defined triple of canonical classes
    on disconnected pairs whose target is nonzero."""
    pairs = [J for J in itertools.combinations(range(1, K.m + 1), 2) if K.component_count(J) == 2]
    for supports in itertools.product(pairs, repeat=3):
        union = tuple(sorted(sum(supports, ())))
        if len(set(union)) < 6 or _window_rank(K, union, 1) == 0:
            continue
        inp = MasseyInput(K, [canonical_class(K, J) for J in supports])
        ds = build_defining_system(inp)
        if not isinstance(ds, CellFailure):
            yield inp, ds


@pytest.mark.parametrize("name", ["k3", "p4", "star4"])
def test_value_sets_match_the_matrix_path_on_corpus_nerves(name):
    seen = {"defined": 0, "indeterminate": 0, "nonzero value in the span": 0}
    for inp, ds in defined_canonical_triples(corpus_nerve(name)):
        triple = triple_value_set(inp, ds)
        assert (triple.indeterminacy_basis, triple.contains_zero) == matrix_path_value_set(inp, ds)
        seen["defined"] += 1
        seen["indeterminate"] += bool(triple.indeterminacy_basis)
        seen["nonzero value in the span"] += (
            triple.contains_zero and not triple.representative.is_zero
        )
    assert all(seen.values()), seen


def test_strict_rejection_matches_the_value_set():
    # the shift test of the strict search, read without the value, against the value set
    seen = Counter()
    for name in ("k3", "p4", "star4", "c4"):
        for inp, ds in defined_canonical_triples(corpus_nerve(name)):
            strict = triple_value_set(inp, ds).strictly_defined
            assert koszul_indeterminate(inp) == (not strict)
            seen[name, strict] += 1
    assert {strict for _, strict in seen} == {False, True}, seen


def test_strict_search_builds_values_of_strict_triples_only(monkeypatch):
    # up to its witness, the strict (5, 3, 5) search on the K4 nerve meets 91
    # defined triples, 85 of them with a nonzero indeterminacy
    values = []
    real = massey.massey_value

    def counting(ds, *args):
        values.append(ds.input)
        return real(ds, *args)

    monkeypatch.setattr(massey, "massey_value", counting)
    witness = search_triple_products(corpus_nerve("k4"), (5, 3, 5), require_strict=True)
    assert witness.status == massey.STATUS_DEFINED_STRICT
    assert len(values) == 6
    assert not any(koszul_indeterminate(inp) for inp in values)


def test_strict_search_checks_each_class_once(monkeypatch):
    # each canonical class is checked once, when made
    made, differentials = [], []
    check, differential = MasseyClassInput.__post_init__, KoszulCochain.differential

    def counting_check(self):
        made.append(self.support)
        check(self)

    def counting_differential(self):
        differentials.append(self)
        return differential(self)

    monkeypatch.setattr(MasseyClassInput, "__post_init__", counting_check)
    monkeypatch.setattr(KoszulCochain, "differential", counting_differential)
    witness = search_triple_products(corpus_nerve("k4"), (5, 3, 5), require_strict=True)
    assert witness.supports == ((1, 2, 3, 5), (6, 7), (9, 12, 13, 14))
    # the 1-skeleton tests reject the other 85 defined triples before any class
    # is made, so only the 9 classes of the 6 strict triples are
    assert len(made) == len(set(made)) == 9
    assert len(differentials) <= 22


def test_default_search_builds_no_condition_table_before_its_witness(monkeypatch):
    # the K4 nerve's 4,056 defined triples with a nonzero target are read by
    # their value sets alone; a witness is given the one report it returns
    tables = []
    real = massey.strict_conditions_check

    def counting(input):
        tables.append(input)
        return real(input)

    monkeypatch.setattr(massey, "strict_conditions_check", counting)
    assert search_triple_products(corpus_nerve("k4")) is None
    assert tables == []
    witness = search_triple_products(corpus_nerve("p4"))
    assert witness.triple.nontrivial and len(tables) == 1


def count_calls(monkeypatch, *names):
    """Count the calls of the named ``massey`` functions, by name."""
    calls = Counter()
    for name in names:
        def counting(*args, _real=getattr(massey, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(massey, name, counting)
    return calls


@pytest.mark.parametrize(
    "name,profile,strict,expected",
    [
        # the strict shift test runs before the rank, so 23 target ranks are
        # read; only the witness gets a condition table, with its 4 ranks
        ("k4", (5, 3, 5), True, (27, 1, 6)),
        ("c4", (3, 3, 3), True, (12, 1, 1)),
        # the witness's report reuses the value set that decided it
        ("p4", (3, 3, 3), False, (8, 1, 3)),
    ],
    ids=["k4-strict-5,3,5", "c4-strict-3,3,3", "p4-default-3,3,3"],
)
def test_search_runs_one_chain_of_tests(monkeypatch, name, profile, strict, expected):
    # counted: window ranks (target ranks and the witness's table), condition
    # tables and values
    names = ("_window_rank", "strict_conditions_check", "massey_value")
    calls = count_calls(monkeypatch, *names)
    witness = search_triple_products(corpus_nerve(name), profile, require_strict=strict)
    assert witness.triple.nontrivial
    assert tuple(calls[n] for n in names) == expected


def nonzero_target_triples(K, profile):
    """The disjoint candidate triples of a search whose target H~^1 is nonzero, in scan order."""
    sizes = [d - 1 for d in profile]
    candidates = {
        size: massey._h0_candidates(K, size, massey.SEARCH_TRIPLE_CAPACITY) for size in set(sizes)
    }
    for triple in itertools.product(*(candidates[size] for size in sizes)):
        union = triple[0].mask | triple[1].mask | triple[2].mask
        if union.bit_count() == sum(sizes) and _window_rank(K, _tuple_of(union), 1):
            yield triple


def skeleton_decisions(K, s1, s2, s3):
    """The search's tests 2 and 3 on the 1-skeleton: (a1 a2 zero, a2 a3 zero, shifts zero)."""
    return (
        massey._cup_is_zero(s1, s2),
        massey._cup_is_zero(s2, s3),
        massey._shifts_are_zero(K, s1, s2, s3, K.component_masks(s1.mask | s2.mask)),
    )


def koszul_decisions(K, classes):
    """The same three decisions read in the Koszul model, on canonical classes."""
    c1, c2, c3 = classes
    return (
        koszul_cup_is_zero(c1, c2),
        koszul_cup_is_zero(c2, c3),
        not koszul_indeterminate(MasseyInput(K, classes)),
    )


def assert_skeleton_decisions_match(K, profile, last=None):
    """Compare the decisions on every nonzero-target triple, up to the supports ``last``."""
    classes = {}

    def cls(J):
        if J not in classes:
            classes[J] = canonical_class(K, J)
        return classes[J]

    seen = Counter()
    for triple in nonzero_target_triples(K, profile):
        fast = skeleton_decisions(K, *triple)
        assert fast == koszul_decisions(K, [cls(s.vertices) for s in triple]), triple
        seen[fast] += 1
        if tuple(s.vertices for s in triple) == last:
            break
    return seen


@pytest.mark.parametrize("profile", [(3, 3, 3), (5, 3, 5)], ids=["3,3,3", "5,3,5"])
@pytest.mark.parametrize("name", sorted(CORPUS_GRAPHS))
def test_skeleton_decisions_match_the_koszul_model_on_corpus_nerves(name, profile):
    # every nonzero-target triple under (3, 3, 3), 14,250 in all; under (5, 3, 5)
    # the K4 nerve alone has 385,458, so there the triples the strict search
    # decides, up to its witness, are compared (every one where it has none)
    K = corpus_nerve(name)
    last = None
    if profile == (5, 3, 5):
        witness = search_triple_products(K, profile, require_strict=True)
        last = witness and witness.supports
    seen = assert_skeleton_decisions_match(K, profile, last)
    if name in ("c4", "k4"):  # both outcomes of the second cup and of the shifts are met
        assert {fast[1] for fast in seen} == {fast[2] for fast in seen} == {False, True}, seen


@st.composite
def nonflag_corpus_nerves(draw):
    """An induced corpus nerve with one to three of its faces of 3 or 4 vertices made non-faces.

    Such a non-face keeps the 1-skeleton and removes higher faces, so the
    target ranks move while the 1-skeleton rules must still hold.
    """
    K = draw(induced_corpus_nerves())
    faces = K.faces(3) + K.faces(4)
    if not faces:
        return K
    extra = draw(st.lists(st.sampled_from(faces), min_size=1, max_size=3))
    return SimplicialComplex(K.m, list(K.minimal_nonfaces) + extra)


SKELETON_PROFILES = [(3, 3, 3), (3, 4, 3)]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(small_complexes(max_m=7), induced_corpus_nerves(), nonflag_corpus_nerves()),
    st.sampled_from(SKELETON_PROFILES),
)
def test_skeleton_decisions_match_the_koszul_model(K, profile):
    assert_skeleton_decisions_match(K, profile)


def triple_decision(K, supports):
    """What the search reads of one triple: its 1-skeleton tests, status and nontriviality."""
    records = {
        s.vertices: s
        for size in {len(J) for J in supports}
        for s in massey._h0_candidates(K, size, massey.SEARCH_TRIPLE_CAPACITY)
    }
    report = massey_product(MasseyInput(K, [canonical_class(K, J) for J in supports]))
    nontrivial = report.triple is not None and report.triple.nontrivial
    return skeleton_decisions(K, *(records[J] for J in supports)), report.status, nontrivial


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(induced_corpus_nerves(), nonflag_corpus_nerves()),
    st.sampled_from(SKELETON_PROFILES),
    st.data(),
)
def test_triple_decision_is_local(K, profile, data):
    # K_J is a full subcomplex, so Z of it is a retract of Z_K: a triple's
    # decision in K is its decision in K_J, J the union of its supports
    triples = list(nonzero_target_triples(K, profile))
    if not triples:
        return
    supports = tuple(s.vertices for s in data.draw(st.sampled_from(triples)))
    J = sorted(sum(supports, ()))
    local = {v: i for i, v in enumerate(J, start=1)}
    relabelled = tuple(tuple(local[v] for v in support) for support in supports)
    assert triple_decision(K, supports) == triple_decision(K.induced(J), relabelled)


def test_search_reads_each_target_rank_once(monkeypatch):
    # the 9,150 triples of the 10-gon have C(10, 6) = 210 distinct unions
    calls = []
    real = massey._window_rank

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(massey, "_window_rank", counting)
    assert search_triple_products(polygon_nerve(10)) is None
    assert len(calls) == len(set(calls)) == 210


def test_canonical_class_grows_only_the_levels_it_reads():
    # two disjoint 20-simplices: K_J on all 40 vertices has a middle level of
    # 2 * 184,756 faces, but the class of its two components reads levels 0-2 only
    K = SimplicialComplex(40, [(a, b) for a in range(1, 21) for b in range(21, 41)])
    cl = canonical_class(K, range(1, 41))
    assert cl.support == tuple(range(1, 41)) and cl.reduced_degree == 0
    assert not cl.representative.is_zero()
    assert cl.representative.differential().is_zero()
    levels = K._cache["face_levels"][K._full_mask]
    assert {size: len(level) for size, level in levels.items()} == {0: 1, 1: 40, 2: 380}

import itertools
import random

import pytest

from moment_angle.complexes import SimplicialComplex
from moment_angle.errors import InputError
from moment_angle.multiwedge import j_construction, validate_wedge_vector, wedge_vertex_map

from conftest import random_complex


def test_identity_wedge():
    rng = random.Random(2)
    for _ in range(10):
        K = random_complex(rng, rng.randint(1, 5))
        assert j_construction(K, (1,) * K.m) == K


def test_point_pair_wedges_to_triangle_boundary():
    S0 = SimplicialComplex(2, [(1, 2)])
    K = j_construction(S0, (2, 1))
    assert K == SimplicialComplex(3, [(1, 2, 3)])


def test_four_cycle_wedge_labels_and_nonfaces():
    K2 = SimplicialComplex(4, [(1, 3), (2, 4)])
    for s in (2, 3):
        W = j_construction(K2, (s, s, 1, 1))
        assert W.m == 2 * s + 2
        first = tuple(range(1, s + 1)) + (2 * s + 1,)
        second = tuple(range(s + 1, 2 * s + 1)) + (2 * s + 2,)
        assert set(W.minimal_nonfaces) == {first, second}
        assert W.labels[:s] == tuple(f"1{c}" for c in range(1, s + 1))
        assert W.labels[-2:] == ("3", "4")


def test_wedge_vertex_map():
    K = SimplicialComplex(3, [(1, 2)])
    assert wedge_vertex_map(K, (2, 1, 3)) == {1: (1, 2), 2: (3,), 3: (4, 5, 6)}


def test_length_mismatch_rejected():
    K = SimplicialComplex(3, [(1, 2)])
    with pytest.raises(InputError):
        j_construction(K, (1, 2))
    with pytest.raises(InputError):
        j_construction(K, (1, 0, 2))
    with pytest.raises(InputError):  # a bool is not a copy count
        j_construction(K, (True, 1, 2))


def test_join_preservation():
    rng = random.Random(4)
    for _ in range(15):
        K1 = random_complex(rng, rng.randint(1, 4))
        K2 = random_complex(rng, rng.randint(1, 4))
        J1 = tuple(rng.randint(1, 2) for _ in range(K1.m))
        J2 = tuple(rng.randint(1, 2) for _ in range(K2.m))
        lhs = j_construction(K1.join(K2), J1 + J2)
        rhs = j_construction(K1, J1).join(j_construction(K2, J2))
        assert lhs == rhs


def compose_wedge_vectors(K, J_first, J_second):
    """The single wedge vector with K(J1)(J2) = K(J12)."""
    J_first = validate_wedge_vector(K, J_first)
    if len(J_second) != sum(J_first):
        raise InputError("second wedge vector must match the wedged vertex count")
    out = []
    pos = 0
    for j in J_first:
        out.append(sum(J_second[pos : pos + j]))
        pos += j
    return tuple(out)


def test_composition():
    rng = random.Random(6)
    for _ in range(15):
        K = random_complex(rng, rng.randint(1, 4))
        J1 = tuple(rng.randint(1, 3) for _ in range(K.m))
        J2 = tuple(rng.randint(1, 2) for _ in range(sum(J1)))
        composed = compose_wedge_vectors(K, J1, J2)
        assert j_construction(j_construction(K, J1), J2) == j_construction(K, composed)


def test_wedging_destroys_flagness():
    K = SimplicialComplex(4, [(1, 3), (2, 4)])
    assert K.structure_report().is_flag
    W = j_construction(K, (2, 1, 1, 1))
    assert not W.structure_report().is_flag
    assert W.structure_report().connectivity == 1  # the untouched pair (2,4) remains


def test_inflated_nonfaces_rule():
    # MF(K(J)) consists exactly of the inflations of MF(K)
    rng = random.Random(8)
    for _ in range(10):
        K = random_complex(rng, rng.randint(2, 4))
        J = tuple(rng.randint(1, 3) for _ in range(K.m))
        copies = wedge_vertex_map(K, J)
        W = j_construction(K, J)
        expected = sorted(
            tuple(sorted(itertools.chain.from_iterable(copies[v] for v in nf)))
            for nf in K.minimal_nonfaces
        )
        assert sorted(W.minimal_nonfaces) == expected

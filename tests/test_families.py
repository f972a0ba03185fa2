import pytest

from moment_angle.errors import InputError
from moment_angle.families import (
    FamilySpec,
    degree_prescribed_complex,
    family_complex,
    polygon_nerve,
)
from moment_angle.multiwedge import wedge_vertex_map
from moment_angle.rational_linalg import reduced_cohomology_ranks


def test_base_family_small_cases():
    assert set(family_complex(FamilySpec("k", n=2)).minimal_nonfaces) == {(1, 3), (2, 4)}
    assert set(family_complex(FamilySpec("kbar", n=2)).minimal_nonfaces) == {
        (1, 3),
        (1, 4),
        (2, 4),
    }
    assert set(family_complex(FamilySpec("kbar", n=3)).minimal_nonfaces) == {
        (1, 4),
        (2, 5),
        (3, 6),
        (1, 5),
        (2, 6),
        (1, 6),
    }


def test_nonface_counts():
    for n in range(2, 7):
        kn = family_complex(FamilySpec("k", n=n))
        kbar = family_complex(FamilySpec("kbar", n=n))
        assert len(kn.minimal_nonfaces) == sum(
            n - i for i in range(0, n - 1)
        )
        assert len(kbar.minimal_nonfaces) == len(kn.minimal_nonfaces) + 1
        extra = set(kbar.minimal_nonfaces) - set(kn.minimal_nonfaces)
        assert extra == {(1, 2 * n)}


def test_kbar_maximal_faces_are_windows():
    for n in range(2, 6):
        kbar = family_complex(FamilySpec("kbar", n=n))
        windows = tuple(
            tuple(range(i, i + n)) for i in range(1, n + 2)
        )
        assert kbar.maximal_faces() == windows
        assert reduced_cohomology_ranks(kbar).is_zero()


def test_kns_delegates_to_multiwedge():
    K = family_complex(FamilySpec("kns", n=2, s=2))
    assert set(K.minimal_nonfaces) == {(1, 2, 5), (3, 4, 6)}
    assert K.labels == ("11", "12", "21", "22", "3", "4")


def test_k21_is_four_cycle():
    assert family_complex(FamilySpec("kns", n=2, s=1)) == polygon_nerve(4)


def test_polygon():
    assert polygon_nerve(6).minimal_nonfaces == (
        (1, 3),
        (1, 4),
        (2, 4),
        (1, 5),
        (2, 5),
        (3, 5),
        (2, 6),
        (3, 6),
        (4, 6),
    )
    assert len(polygon_nerve(5).minimal_nonfaces) == 5
    with pytest.raises(InputError):
        polygon_nerve(3)


def test_degree_prescribed():
    K = degree_prescribed_complex((3, 5, 3))
    # d = (1, 2, 1): vertices 1, 21, 22, 3, 4, 5, 6
    assert K.m == 7
    assert K.labels == ("1", "21", "22", "3", "4", "5", "6")
    with pytest.raises(InputError):
        degree_prescribed_complex((3, 4, 3))
    with pytest.raises(InputError):
        degree_prescribed_complex((3,))


def test_family_errors():
    with pytest.raises(InputError):
        family_complex(FamilySpec("k", n=1))
    with pytest.raises(InputError):
        family_complex(FamilySpec("kns", n=2, s=0))
    with pytest.raises(InputError):
        family_complex(FamilySpec("nosuch"))


def _window_subcomplex(K, copies, n, i, j):
    verts = []
    for v in range(i, j + 1):
        verts.extend(copies[v])
    for v in range(n + i, n + j + 1):
        verts.extend(copies[v])
    return K.induced(sorted(verts))


def test_windows_of_kns_are_kbar():
    # consecutive blocks of K(n,s) induce the closed family on the window width
    for n, s in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        K = family_complex(FamilySpec("kns", n=n, s=s))
        base = family_complex(FamilySpec("k", n=n))
        copies = wedge_vertex_map(base, (s,) * n + (1,) * n)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if j - i > n - 2:
                    continue
                w = j - i + 1
                sub = _window_subcomplex(K, copies, n, i, j)
                expected = family_complex(FamilySpec("kbarns", n=w, s=s)) if w >= 2 else None
                if w >= 2:
                    assert sub == expected


def test_leading_blocks_with_last_are_kns():
    # blocks 1..r-1 together with block n induce K(r,s)
    for n, s in [(3, 1), (3, 2), (4, 1), (4, 2)]:
        K = family_complex(FamilySpec("kns", n=n, s=s))
        base = family_complex(FamilySpec("k", n=n))
        copies = wedge_vertex_map(base, (s,) * n + (1,) * n)
        for r in range(2, n + 1):
            verts = []
            for v in list(range(1, r)) + [n]:
                verts.extend(copies[v])
                verts.extend(copies[n + v])
            sub = K.induced(sorted(verts))
            assert sub == family_complex(FamilySpec("kns", n=r, s=s))

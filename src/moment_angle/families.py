"""Generators for the named complex families used throughout the test-scale runs.

The two base families on 2n vertices are given by explicit pair non-faces:

    name "k"    : MF = {(k, n+k+i) : 0 <= i <= n-2, 1 <= k <= n-i}
    name "kbar" : the same with i allowed up to n-1 (one extra pair (1, 2n));
                  its maximal faces are the n+1 windows of n consecutive
                  vertices, a contractible chain of (n-1)-simplices.

"kns" / "kbarns" wedge the first n vertices s times each; "degrees" builds
the multiwedge with copy counts (d_1, ..., d_n, 1, ..., 1) used for
prescribing odd class dimensions 2d_i + 1; "polygon" is the m-cycle (the
nerve of an m-gon).
"""

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import SimplicialComplex
from .errors import CapacityError, InputError
from .multiwedge import j_construction

# a family complex holds up to m^2 / 2 minimal non-faces and its construction
# reduces them to an antichain in quadratic time: the 120-gon took 2.5 s
FAMILY_VERTEX_CAPACITY = 128


@dataclass(frozen=True)
class FamilySpec:
    name: str  # one of: k, kbar, kns, kbarns, polygon, degrees
    n: Optional[int] = None
    s: Optional[int] = None
    m: Optional[int] = None
    degrees: Optional[Sequence[int]] = None


def _pair_nonfaces(n, max_offset):
    pairs = ((k, n + k + i) for i in range(max_offset + 1) for k in range(1, n - i + 1))
    return [1 << (a - 1) | 1 << (b - 1) for a, b in pairs]  # as bitmasks


def _require_n(spec):
    if spec.n is None or spec.n < 2:
        raise InputError(f"family {spec.name!r} needs n >= 2, got {spec.n!r}")
    return spec.n


def _require_s(spec):
    if spec.s is None or spec.s < 1:
        raise InputError(f"family {spec.name!r} needs s >= 1, got {spec.s!r}")
    return spec.s


def _check_family_size(name, m):
    """Raise before any non-face is built when the family would have more than the capacity."""
    if m > FAMILY_VERTEX_CAPACITY:
        raise CapacityError(
            "family-size",
            f"family {name!r} would have {m} vertices; capacity is m <= {FAMILY_VERTEX_CAPACITY}",
        )


def polygon_nerve(m):
    """The m-cycle: nerve complex of an m-gon (all non-adjacent pairs are non-faces)."""
    if m < 4:
        raise InputError(f"polygon nerve needs m >= 4, got {m}")
    mf = [1 << a | 1 << b for a in range(m) for b in range(a + 2, m) if (a, b) != (0, m - 1)]
    return SimplicialComplex._from_masks(m, mf)


def family_complex(spec):
    """Build the complex described by a FamilySpec."""
    name = spec.name.lower()
    if name == "k":
        n = _require_n(spec)
        _check_family_size(name, 2 * n)
        return SimplicialComplex._from_masks(2 * n, _pair_nonfaces(n, n - 2))
    if name == "kbar":
        n = _require_n(spec)
        _check_family_size(name, 2 * n)
        return SimplicialComplex._from_masks(2 * n, _pair_nonfaces(n, n - 1))
    if name in ("kns", "kbarns"):
        n, s = _require_n(spec), _require_s(spec)
        _check_family_size(name, n * s + n)
        base = family_complex(FamilySpec("k" if name == "kns" else "kbar", n=n))
        return j_construction(base, (s,) * n + (1,) * n)
    if name == "polygon":
        if spec.m is None:
            raise InputError("polygon family needs m")
        _check_family_size(name, spec.m)
        return polygon_nerve(spec.m)
    if name == "degrees":
        return degree_prescribed_complex(spec.degrees)
    raise InputError(f"unknown family {spec.name!r}")


def degree_prescribed_complex(odd_degrees):
    """K(J) over the base family "k" realizing classes of dims (k_1, ..., k_n).

    Each k_i must be an odd integer >= 3; vertex i is wedged d_i = (k_i-1)/2
    times, so the i-th canonical support carries a sphere of dimension d_i - 1
    and the class has total dimension 2 d_i + 1 = k_i.
    """
    if odd_degrees is None or len(odd_degrees) < 2:
        raise InputError("degree list needs at least two entries")
    ks = tuple(odd_degrees)
    if any(k < 3 or k % 2 == 0 for k in ks):
        raise InputError(f"degree list entries must be odd integers >= 3: {ks}")
    n = len(ks)
    d = tuple((k - 1) // 2 for k in ks)
    _check_family_size("degrees", sum(d) + n)
    base = family_complex(FamilySpec("k", n=n))
    return j_construction(base, d + (1,) * n)


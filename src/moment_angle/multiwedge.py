"""The simplicial multiwedge: replace vertex i by j_i copies.

Each minimal non-face inflates to the set of all copies of its vertices, so
the construction is a pure rewrite of the non-face data.  Copies of vertex i
occupy consecutive positions (all copies of 1 first, then of 2, and so on);
that ordering fixes the multidegree supports and sign conventions used
downstream.
"""

from .complexes import VERTEX_CAPACITY, SimplicialComplex, _bits
from .errors import CapacityError, InputError


def validate_wedge_vector(K, J):
    J = tuple(J)
    if len(J) != K.m:
        raise InputError(f"wedge vector has length {len(J)}, expected {K.m}")
    if any(type(j) is not int or j < 1 for j in J):  # bool is an int subclass: not a count
        raise InputError(f"wedge vector entries must be positive integers: {J}")
    if sum(J) > VERTEX_CAPACITY:  # checked before any non-face is inflated
        raise CapacityError(
            "wedge-size",
            f"multiwedge would have {sum(J)} vertices; capacity is {VERTEX_CAPACITY}",
        )
    return J


def wedge_vertex_map(K, J):
    """New indices of the copies of each original vertex: map[i] is a tuple."""
    J = validate_wedge_vector(K, J)
    out = {}
    pos = 1
    for i, j in enumerate(J, start=1):
        out[i] = tuple(range(pos, pos + j))
        pos += j
    return out


def j_construction(K, J):
    """The multiwedge K(J); K(1,...,1) is K itself.

    Each minimal non-face inflates to the sum of the copy masks of its
    vertices, which are disjoint.  Copies of an unwedged vertex keep its
    label; wedged copies get the label suffixed by the copy number.
    """
    J = validate_wedge_vector(K, J)
    copies, low = [0], 0  # copies[v]: the mask of the copies of vertex v
    for j in J:
        copies.append(((1 << j) - 1) << low)
        low += j
    mf = [sum(copies[v.bit_length()] for v in _bits(nf)) for nf in K._mf_masks]
    labels = tuple(
        base if j == 1 else f"{base}{c}" for base, j in zip(K.labels, J) for c in range(1, j + 1)
    )
    return SimplicialComplex._from_masks(low, mf, labels)

"""Multigraded and bigraded algebraic Betti numbers via Hochster's formula.

The bigraded Betti number beta^{-i,2j} of the face ring is the sum over all
j-element vertex subsets J of the rank of reduced cohomology of the induced
subcomplex K_J in degree j-i-1; the same per-subset ranks assemble the
Poincare vectors of the moment-angle complex Z_K and of the real
moment-angle complex R_K.

No induced subcomplex is built: the face lattice of each K_J is grown level
by level from the minimal non-faces inside J, using vertices of J only, so a
subset costs the faces of K_J however large K is.  The faces come in the
same lexicographic order as the faces of the relabeled K_J, so each subset
gets exactly the coboundary matrices of K_J.

Most subsets need no elimination at all.  A vertex v of K_J is dominated
by a vertex w != v when every maximal face of K_J through v contains w, i.e.
the link of v is a cone with apex w.  Deleting a dominated vertex is a
strong collapse, so K_J is homotopy equivalent to K_{J - v} and has the same
reduced cohomology (Barmak and Minian, "Strong homotopy types, nerves and
collapses", Discrete Comput. Geom. 47 (2012)).  The full table walks the
subsets by size and keeps the profiles of two adjacent sizes by bitmask,
the previous one and the current one (at m = 22, C(22, 10) + C(22, 11),
about 1.35 million entries); a subset with a dominated vertex takes the
profile of K_{J - v}, and only the others grow faces and eliminate
coboundaries.  A listed multidegree is computed on its own K_J.
"""

import itertools
from dataclasses import dataclass

from .complexes import _mask_of
from .errors import CapacityError, InputError
from .rational_linalg import cohomology_profile, cohomology_rank

FULL_TABLE_CAPACITY = 22


def multigraded_betti(K, i, J):
    """beta^{-i, 2J}: rank of reduced H^{|J|-i-1} of the induced subcomplex on J."""
    J = sorted(set(J))
    if i < 0 or i > len(J):
        raise InputError(f"homological degree {i} outside 0..{len(J)}")
    size = len(J) - i  # faces of size d + 1 carry degree d = |J| - i - 1
    # levels[k + 1] holds the faces with k vertices; levels[0] is the empty size -1
    levels = [(), *itertools.islice(K.induced_face_levels(_mask_of(J, K.m)), size + 2)]
    levels += [()] * (size + 3 - len(levels))
    return cohomology_rank(*levels[size : size + 3])


@dataclass(frozen=True)
class BettiTable:
    bigraded: dict  # (i, j) -> rank, only nonzero entries
    zk_poincare: tuple  # Betti numbers of Z_K by total degree
    rk_poincare: tuple  # Betti numbers of R_K by total degree

    def rank(self, i, j):
        return self.bigraded.get((i, j), 0)

    def sorted_entries(self):
        return sorted((i, j, r) for (i, j), r in self.bigraded.items())


def _full_table_profiles(K):
    """(|J|, profile of K_J) for every vertex subset J, by size and then lex order.

    The profiles of the previous size and of the current one are kept by
    bitmask: when a vertex v is dominated in K_J, K_J collapses onto
    K_{J - v} and shares its profile.
    """
    previous = {}
    for size in range(K.m + 1):
        current = {}
        for J in itertools.combinations([1 << v for v in range(K.m)], size):
            mask = sum(J)
            v = K.dominated_vertex(mask)
            if v:
                profile = previous[mask ^ (1 << (v - 1))]
            else:
                profile = cohomology_profile(K.induced_face_levels(mask))
            current[mask] = profile
            yield size, profile
        previous = current


def _listed_profiles(K, multidegrees):
    """(|J|, profile of K_J) for each listed J."""
    for J in [tuple(sorted(set(J))) for J in multidegrees]:
        yield len(J), cohomology_profile(K.induced_face_levels(_mask_of(J, K.m)))


def bigraded_betti_table(K, multidegrees=None, capacity=FULL_TABLE_CAPACITY):
    """Full bigraded Betti table plus Z_K and R_K Poincare vectors.

    Enumerates all 2^m vertex subsets unless an explicit iterable of
    multidegrees is supplied; the enumeration is guarded by ``capacity`` and
    fails loudly rather than truncating.
    """
    if multidegrees is None:
        if K.m > capacity:
            raise CapacityError(
                "betti-table",
                f"full table needs 2^{K.m} subsets; capacity is m <= {capacity} "
                "(pass an explicit multidegree filter for targeted queries)",
            )
        profiles = _full_table_profiles(K)
    else:
        profiles = _listed_profiles(K, multidegrees)

    bigraded = {}
    zk = {}
    rk = {}
    for size, profile in profiles:
        for d, r in profile.items():
            if not r:
                continue
            i = size - d - 1
            key = (i, size)
            bigraded[key] = bigraded.get(key, 0) + r
            p_zk = d + size + 1
            zk[p_zk] = zk.get(p_zk, 0) + r
            p_rk = d + 1
            rk[p_rk] = rk.get(p_rk, 0) + r

    def to_vector(data):
        top = max(data) if data else 0
        return tuple(data.get(p, 0) for p in range(top + 1))

    return BettiTable(bigraded, to_vector(zk), to_vector(rk))


def component_count_betti(K, i):
    """beta^{-i, 2(i+1)} computed from connected-component counts.

    Sums (number of components of K_J) - 1 over all (i+1)-subsets J; the
    components of an induced subcomplex are those of its 1-skeleton, with
    isolated vertices counting as components.
    """
    if i < 1:
        raise InputError(f"component-count Betti numbers need i >= 1, got {i}")
    total = 0
    for J in itertools.combinations(range(1, K.m + 1), i + 1):
        total += K.component_count(J) - 1
    return total

"""Multigraded and bigraded algebraic Betti numbers via Hochster's formula.

The bigraded Betti number beta^{-i,2j} of the face ring is the sum over all
j-element vertex subsets J of the rank of reduced cohomology of the induced
subcomplex K_J in degree j-i-1; the same per-subset ranks assemble the
Poincare vectors of the moment-angle complex Z_K and of the real
moment-angle complex R_K.

No induced subcomplex is built: the face levels of each K_J come from the
minimal non-faces inside J, using vertices of J only, so a subset costs the
faces of K_J however large K is.  The faces come in the same lexicographic
order as the faces of the relabeled K_J, so each subset gets exactly the
coboundary matrices of K_J.

Most subsets need no elimination at all.  A vertex v of K_J is dominated
by a vertex w != v when every maximal face of K_J through v contains w, i.e.
the link of v is a cone with apex w.  Deleting a dominated vertex is a
strong collapse, so K_J is homotopy equivalent to K_{J - v} and has the same
reduced cohomology (Barmak and Minian, "Strong homotopy types, nerves and
collapses", Discrete Comput. Geom. 47 (2012)); any dominated vertex will
do, since every strong collapse keeps the homotopy type.

The full table walks the subsets as bitmasks in increasing order and keeps
one rank tuple per mask (at m = 22, 2^22 entries, most of them shared
tuples), so every proper subset of J has been walked before J:

- A subset J takes the ranks of K_{J - v} when some vertex v of J lies in
  no minimal non-face of 3 or more vertices and its link is acyclic.  Such
  a v has the full subcomplex on its neighbours in J as its link, whose
  ranks were walked already, and K_J is the union of K_{J - v} and the
  star of v, a cone, which meet in that link; by Mayer-Vietoris over Q,
  K_J has the reduced cohomology of K_{J - v}.  The empty link, with ranks
  (1,), is never acyclic.  A dominated v has a cone for its link, so this
  one rule makes every collapse that domination makes on such vertices:
  the 13-gon takes it on 7,670 of its 8,192 masks and makes no domination
  test.
- Only when no such vertex has an acyclic link and J holds a vertex of a
  larger minimal non-face is J scanned for a dominated vertex v, which
  then lies in a larger non-face, and J takes the ranks of K_{J - v}.
- A subset left whose 1-skeleton is disconnected is the disjoint union of
  K_A, A the component of its lowest vertex, and K_{J - A}: its ranks are
  the sums of theirs, plus 1 in degree 0.  The summed tuples are interned,
  one object per distinct profile.
- Only the connected subsets left grow faces, and their two lowest
  coboundaries are read off a spanning forest of the graph
  (``rational_linalg``), so only coboundaries above the edges are
  eliminated.  In the 13-gon 15 of 8,192 subsets grow faces (the empty
  set, the singletons and the cycle) and none eliminates; the C4 nerve
  eliminates 14 matrices, the P4 nerve 2.

A single subset, asked by ``multigraded_betti`` or listed for the table, is
read on its core, J with its dominated vertices stripped one at a time: its
ranks are J's, read from the core's levels in the complex's store, which
the Koszul components of that core read too (0 in ``multigraded_betti``
when the core is one vertex).  The table counts each distinct (|J|, ranks)
pair and expands the counts once.
"""

import itertools
from collections import Counter
from dataclasses import dataclass

from .complexes import _mask_of
from .errors import CapacityError, InputError
from .rational_linalg import cohomology_profile, reduced_cohomology_rank, reduced_cohomology_ranks

FULL_TABLE_CAPACITY = 22


def multigraded_betti(K, i, J):
    """beta^{-i, 2J}: reduced H^{|J|-i-1} of K_J, read on the stored levels of J's core."""
    mask = _mask_of(J, K.m)
    n = mask.bit_count()
    if i < 0 or i > n:
        raise InputError(f"homological degree {i} outside 0..{n}")
    core = K.strong_core(mask)
    if mask and core & (core - 1) == 0:
        return 0
    return reduced_cohomology_rank(K, n - i - 1, core)


@dataclass(frozen=True)
class BettiTable:
    bigraded: dict  # (i, j) -> rank, only nonzero entries
    zk_poincare: tuple  # Betti numbers of Z_K by total degree
    rk_poincare: tuple  # Betti numbers of R_K by total degree

    def rank(self, i, j):
        return self.bigraded.get((i, j), 0)

    def sorted_entries(self):
        return sorted((i, j, r) for (i, j), r in self.bigraded.items())


def _profile_counts(K, multidegrees):
    """Counter of (|J|, reduced cohomology ranks of K_J) over the listed J, or over all J.

    A listed J takes the ranks of its core: J's up to trailing zeros.  The
    full walk takes the subsets as bitmasks in increasing order and keeps
    one rank tuple per mask, so the ranks of every smaller subset are
    ready.  J takes the ranks of K_{J - v} for the vertex v of
    ``_acyclic_link_vertex``, or failing that, when J holds a vertex of a
    larger minimal non-face, for its ``dominated_vertex``; a disconnected
    K_J left sums its two sides, and only the rest grow their levels.
    """
    if multidegrees is not None:
        masks = [_mask_of(J, K.m) for J in multidegrees]
        ranks = [reduced_cohomology_ranks(K, K.strong_core(mask)).ranks for mask in masks]
    else:
        masks = range(1 << K.m)
        ranks = [cohomology_profile(K.induced_face_levels(0)).ranks]
        stars = K._nonface_stars()
        # the vertices in no minimal non-face of 3 or more vertices
        pair_only = sum(1 << (v - 1) for v in range(1, K.m + 1) if not stars[v][1])
        joined = {}  # one tuple per distinct profile of a disjoint union
        for mask in range(1, 1 << K.m):
            bit = _acyclic_link_vertex(stars, mask & pair_only, mask, ranks)
            if not bit and mask & ~pair_only and (v := K.dominated_vertex(mask)):
                bit = 1 << (v - 1)
            if bit:
                ranks.append(ranks[mask ^ bit])
            elif (part := K.component_mask(mask)) != mask:
                profile = _disjoint_union(ranks[part], ranks[mask ^ part])
                ranks.append(joined.setdefault(profile, profile))
            else:
                ranks.append(cohomology_profile(K.induced_face_levels(mask)).ranks)
    return Counter(zip(map(int.bit_count, masks), ranks))


def _acyclic_link_vertex(stars, candidates, mask, ranks):
    """The lowest vertex bit v of ``candidates`` whose link in K_J is acyclic; 0 if none.

    ``stars`` is ``K._nonface_stars()``, and each candidate lies in no
    larger minimal non-face, so its link in K_J is the full subcomplex on
    its neighbours in J, whose ranks ``ranks`` holds already: it is acyclic
    when they are all zero (never for the empty link, whose ranks are (1,)).
    """
    while candidates:
        v = candidates & -candidates
        candidates ^= v
        if not any(ranks[mask & ~stars[v.bit_length()][0] & ~v]):
            return v
    return 0


def _disjoint_union(a, b):
    """Reduced cohomology ranks of the disjoint union of two nonempty complexes.

    The ranks add in every degree, and H^0 gains one more: the reduced
    H^0 of two components is one more than the sum of theirs.
    """
    out = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    out[1] += 1
    return tuple(out)


def bigraded_betti_table(K, multidegrees=None):
    """Full bigraded Betti table plus Z_K and R_K Poincare vectors.

    Enumerates all 2^m vertex subsets unless an explicit iterable of
    multidegrees is supplied, each counted once per listing; the enumeration
    is guarded by ``FULL_TABLE_CAPACITY`` and fails loudly rather than
    truncating.
    """
    if multidegrees is None and K.m > FULL_TABLE_CAPACITY:
        raise CapacityError(
            "betti-table",
            f"full table needs 2^{K.m} subsets; capacity is m <= {FULL_TABLE_CAPACITY} "
            "(pass an explicit multidegree filter for targeted queries)",
        )
    bigraded, zk, rk = Counter(), Counter(), Counter()
    for (size, ranks), count in _profile_counts(K, multidegrees).items():
        for d, r in enumerate(ranks, -1):
            if r:
                bigraded[size - d - 1, size] += r * count
                zk[d + size + 1] += r * count
                rk[d + 1] += r * count

    def to_vector(data):
        return tuple(data[p] for p in range(max(data, default=0) + 1))

    return BettiTable(dict(bigraded), to_vector(zk), to_vector(rk))


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

"""Finite abstract simplicial complexes on the vertex set {1, ..., m}.

A complex is stored by its set of minimal non-faces (the generators of the
corresponding squarefree monomial ideal); the maximal faces are derived
lazily by hypergraph dualization and cached.  Every reader of the minimal
non-faces reads one index of them, the star of each vertex: the non-faces
through it, each with the vertex removed.  The faces of K and of each
induced subcomplex K_J form bitmask lattices, built one level (face size)
at a time from the nearer end: a lower level grows from the level below it
by the stars of the vertices it adds, and an upper level (more than half
of J) is read off the complements in J that meet every non-face inside J.
Only the levels a caller asks for, and those below them on the bottom-up
side, are built, and they are kept in one store per complex keyed by the
vertex mask of J, for every reader of one K_J; only the walk over all 2^m
subsets grows its levels bottom-up without keeping them.  A face test,
domination and the 1-skeleton flood fill read the same stars.  Every
singleton {i} must be a face, so complexes carry no ghost vertices.  All
values are canonicalized and immutable after construction; equality and
hashing use the canonical form (vertex labels are carried along but never
affect any computation).

Vertices are 1-indexed in the public API, and a vertex set is a list that
names each vertex once: ``_mask_of``, the one reader of vertex lists,
refuses a string, bytes, a mapping or a repeat (a support that counts a
vertex twice asks a different question), where the list enters.  Inside,
every vertex set is a bitmask, bit v-1 for vertex v, and a sorted tuple is
written only for a public field, a report or a repr.
"""

import itertools
import math
from typing import NamedTuple

from .errors import CapacityError, GhostVertexError, InputError

# vertices of one complex: every face is a mask of m bits; a multiwedge sums one
# copy mask per vertex into each inflated non-face, so on the hexagon (2-vCPU
# Xeon, Python 3.11.7, fresh processes) the wedge vector (131067, 1, ..., 1),
# at this cap, builds in 0.05 s at 27 MB; the largest complex in the tests has
# 100,002 vertices
VERTEX_CAPACITY = 2**17
# candidate transversals per dualization step; the reduction to the minimal
# ones is quadratic across sizes (4,000 sets of sizes 4-6 took 0.4 s, 20,000
# took 7 s), while the tests and benchmark workloads stay below 100
TRANSVERSAL_CAPACITY = 5000
# faces of one size in a face lattice; the homology of the full simplex, whose
# middle level is the largest, took 0.5 s and 31 MB at m = 14 (3,432 faces),
# 2.4 s and 65 MB at m = 16 (12,870) and 11.4 s and 213 MB at m = 18 (48,620),
# about 5x the time per two vertices (2-vCPU Xeon, Python 3.11.7); a level
# grown bottom-up is refused as soon as it passes this, and a level read off
# its complements is built only when it has at most this many candidates, so
# it needs no guard of its own; outside the capacity tests the largest level
# built in the tier-1 tests has 14,768 faces (read off its complements, in
# `massey --family 4,4`; 9,832 grown bottom-up), and in the benchmark
# workloads 529
FACE_LEVEL_CAPACITY = 50_000


def _mask_of(vertices, m):
    """The bitmask of a vertex list: each vertex an int in 1..m, named once."""
    # a string, bytes or mapping is iterable, but never a list of vertices
    if isinstance(vertices, (str, bytes, bytearray, dict)) or not hasattr(vertices, "__iter__"):
        raise InputError(f"a vertex set must be a list, got {vertices!r}")
    mask = 0
    for v in vertices:
        if type(v) is not int or v < 1 or v > m:  # bool is an int subclass: not a vertex
            raise InputError(f"vertex {v!r} out of range 1..{m}")
        if mask >> (v - 1) & 1:  # a shift: on ascending vertices it is 0 at once
            raise InputError(f"a vertex set repeats a vertex: {v}")
        mask |= 1 << (v - 1)
    return mask


def _as_list(value, what):
    # a JSON string or object is iterable, but never a list of items
    if not isinstance(value, (str, bytes, dict)):
        try:
            return list(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be a list, got {value!r}")


def _check_vertex_count(m):
    if type(m) is not int or m < 0:  # bool is an int subclass: not a count
        raise InputError(f"vertex count must be a nonnegative integer, got {m!r}")
    if m > VERTEX_CAPACITY:
        raise CapacityError(
            "vertex-count", f"{m} vertices; capacity is {VERTEX_CAPACITY} vertices per complex"
        )


def _bits(mask):
    """The set bits of ``mask`` as one-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _tuple_of(mask):
    """The sorted vertex tuple of a bitmask, for a public field, a report or a repr."""
    return tuple(map(int.bit_length, _bits(mask)))


def _antichain(masks, minimal):
    """Inclusion-minimal (or -maximal) elements of a collection of bitmasks.

    Masks are bucketed by size and the buckets visited smallest (largest)
    first.  Distinct masks of one size never contain each other, so a mask
    is compared only with the kept masks of the buckets before its own, and
    the first bucket is kept whole.  Each bucket is in increasing order.
    Repeats are dropped after sorting, not by a set: an int hashes to its
    value modulo 2^61 - 1, so bit v and bit v + 61 hash alike, and a set of
    465,751 two-bit masks of 1,022 bits (1,891 hash values) spent 4.9 s on
    collisions.
    """
    by_size, last = {}, None
    for x in sorted(masks):
        if x != last:
            by_size.setdefault(x.bit_count(), []).append(x)
            last = x
    kept = []
    for size in sorted(by_size, reverse=not minimal):
        level = by_size[size]
        if kept and minimal:
            level = [x for x in level if not any(k & x == k for k in kept)]
        elif kept:
            level = [x for x in level if not any(k & x == x for k in kept)]
        kept.extend(level)
    return kept


def _minimal_transversals(edges, guard):
    """All inclusion-minimal vertex sets hitting every edge (Berge's method).

    ``edges`` is a list of bitmasks.  An empty edge admits no transversal;
    zero edges admit exactly the empty transversal.  A step that would hold
    more than ``TRANSVERSAL_CAPACITY`` candidates raises ``CapacityError``
    named ``guard`` before it builds them.
    """
    trans = [0]
    for done, e in enumerate(edges):
        if e == 0:
            return []
        hit, miss = [], []
        for t in trans:
            (hit if t & e else miss).append(t)
        if not miss:
            continue
        candidates = len(hit) + len(miss) * e.bit_count()
        if candidates > TRANSVERSAL_CAPACITY:
            raise CapacityError(
                guard,
                f"dualization needs {candidates} candidate transversals after "
                f"{done} of {len(edges)} sets; capacity is {TRANSVERSAL_CAPACITY}",
            )
        new, bits = list(hit), list(_bits(e))
        for t in miss:
            new.extend(t | b for b in bits)
        trans = _antichain(new, minimal=True)
    return trans


class StructureReport(NamedTuple):
    is_flag: bool
    connectivity: float  # q such that all non-faces have size >= q+1; math.inf for a simplex


class SimplicialComplex:
    """A simplicial complex given by vertex count and minimal non-faces."""

    __slots__ = ("m", "labels", "_mf_masks", "_full_mask", "_cache", "__weakref__")

    def __init__(self, m, minimal_nonfaces=(), labels=None):
        _check_vertex_count(m)
        masks = [_mask_of(nf, m) for nf in _as_list(minimal_nonfaces, "minimal non-faces")]
        self._init(m, masks, labels)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_masks(cls, m, nonface_masks, labels=None):
        """The complex on m vertices whose non-faces are the bitmasks ``nonface_masks``."""
        _check_vertex_count(m)
        K = cls.__new__(cls)
        K._init(m, nonface_masks, labels)
        return K

    def _init(self, m, masks, labels):
        """Keep the minimal non-face masks, refusing one of size 0 or 1, and the m labels."""
        kept = _antichain(masks, minimal=True)  # by size, smallest first
        if kept and (size := kept[0].bit_count()) < 2:
            raise GhostVertexError(
                f"non-face {_tuple_of(kept[0])} has size {size}; singletons must be faces"
            )
        labels = tuple(map(str, range(1, m + 1) if labels is None else _as_list(labels, "labels")))
        if len(labels) != m:
            raise InputError(f"expected {m} labels, got {len(labels)}")
        self.m = m
        self._full_mask = (1 << m) - 1
        self._mf_masks = tuple(sorted(kept))
        self.labels = labels
        self._cache = {"face_levels": {}, "cores": {}}

    @classmethod
    def from_maximal_faces(cls, m, maximal_faces, labels=None):
        """Inverse constructor: recover the minimal non-faces by dualization.

        A subset is a non-face exactly when it meets the complement of every
        maximal face, so the minimal non-faces are the minimal transversals
        of the complement hypergraph.
        """
        _check_vertex_count(m)
        face_masks = [_mask_of(f, m) for f in _as_list(maximal_faces, "maximal faces")]
        full = (1 << m) - 1
        covered = 0
        for mask in face_masks:
            covered |= mask
        if covered != full:
            raise GhostVertexError(f"vertices {_tuple_of(full ^ covered)} lie in no maximal face")
        face_masks = _antichain(face_masks, minimal=False)
        mf = _minimal_transversals([full ^ f for f in face_masks], "minimal-nonfaces")
        K = cls._from_masks(m, mf, labels)
        K._cache["maximal_faces"] = tuple(sorted(face_masks))
        return K

    @classmethod
    def full_simplex(cls, m):
        return cls(m, ())

    @classmethod
    def empty(cls):
        """The complex {emptyset} on zero vertices (reduced cohomology k in degree -1)."""
        return cls(0, ())

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict) or "m" not in data:
            raise InputError("complex JSON must be an object with an \"m\" field")
        m = data["m"]
        labels = data.get("labels")
        if "minimal_nonfaces" in data:
            K = cls(m, data["minimal_nonfaces"], labels)
            if "maximal_faces" not in data:
                return K
            other = cls.from_maximal_faces(m, data["maximal_faces"], labels)
            if other != K:
                raise InputError(
                    "\"minimal_nonfaces\" and \"maximal_faces\" describe different complexes"
                )
            return other  # it keeps its maximal faces, so they are not recomputed
        if "maximal_faces" in data:
            return cls.from_maximal_faces(m, data["maximal_faces"], labels)
        raise InputError("complex JSON needs \"minimal_nonfaces\" or \"maximal_faces\"")

    # -- canonical data ----------------------------------------------------

    @property
    def minimal_nonfaces(self):
        return tuple(_tuple_of(mask) for mask in self._mf_masks)

    def to_json_dict(self, include_maximal=False):
        out = {"m": self.m, "minimal_nonfaces": [list(nf) for nf in self.minimal_nonfaces]}
        if self.labels != tuple(str(i) for i in range(1, self.m + 1)):
            out["labels"] = list(self.labels)
        if include_maximal:
            out["maximal_faces"] = [list(f) for f in self.maximal_faces()]
        return out

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.m == other.m and self._mf_masks == other._mf_masks

    def __hash__(self):
        # kept: every cache lookup keyed by a complex hashes it, and a nerve
        # with 113,949 minimal non-faces took 2.8 ms per hash
        if "hash" not in self._cache:
            self._cache["hash"] = hash((self.m, self._mf_masks))
        return self._cache["hash"]

    def __repr__(self):
        return f"SimplicialComplex(m={self.m}, |MF|={len(self._mf_masks)})"

    # -- faces ---------------------------------------------------------------

    def is_face_mask(self, mask):
        """Whether the bitmask ``mask`` is a face of K, read off ``_nonface_stars``.

        A minimal non-face lies inside the mask exactly when one of its
        vertices v does and so does its rest listed under v, so the lowest
        vertex of the mask in such a non-face finds it.
        """
        stars = self._nonface_stars()
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            pairs, larger = stars[low.bit_length()]
            if mask & pairs or larger and any(r & mask == r for r in larger):
                return False
        return True

    def is_face(self, vertices):
        """Whether a collection of vertices is a face of K."""
        return self.is_face_mask(_mask_of(vertices, self.m))

    def _nonface_stars(self, mask=None):
        """Minimal non-faces through each vertex w (cached), those inside J if J is given.

        Entry w is a pair: the bitmask of the vertices u with {u, w} a
        minimal non-face, and the rests N - w of the larger minimal
        non-faces N that contain w.  With J given by the bitmask ``mask``,
        only the larger rests inside J are kept: a face of K_J never
        contains a rest outside J, so the lattice of K_J costs its own
        faces, however large K is.
        """
        if "nonface_stars" not in self._cache:
            pairs = [0] * (self.m + 1)
            larger = [[] for _ in range(self.m + 1)]
            for nf in self._mf_masks:
                a, b = nf & -nf, nf & (nf - 1)
                if b & (b - 1) == 0:
                    pairs[a.bit_length()] |= b
                    pairs[b.bit_length()] |= a
                    continue
                for w in _bits(nf):
                    larger[w.bit_length()].append(nf ^ w)
            self._cache["nonface_stars"] = list(zip(pairs, larger))
        stars = self._cache["nonface_stars"]
        if mask is None or mask == self._full_mask:
            return stars
        return [(pairs, [r for r in larger if r & mask == r]) for pairs, larger in stars]

    def dominated_vertex(self, mask):
        """The lowest vertex v dominated in K_J, J given by the bitmask ``mask``; 0 if none.

        v is dominated by a vertex w != v of J when every maximal face of
        K_J through v contains w, i.e. the link of v in K_J is a cone with
        apex w.  Read off the minimal non-faces: {v, w} is a face, and for
        every minimal non-face N inside J with w in N, (N - w) + v is a
        non-face.  A pair N = {w, u} asks that {u, v} be a minimal
        non-face, so the pairs are one bitmask test.  For a larger N, N - w
        is a face, so (N - w) + v is a non-face exactly when it holds a
        minimal non-face through v: N - w meets a u with {u, v} a non-face,
        or holds the rest of a larger minimal non-face through v.  Each v of
        J, lowest first, is tried against each w that shares an edge with
        it; a flag complex has no larger non-faces, and no generator is
        built for it.
        """
        stars = self._nonface_stars()
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            apart, own = stars[low.bit_length()]
            candidates = mask & ~apart & ~low  # the w with {v, w} a face
            while candidates:
                apex = candidates & -candidates
                candidates ^= apex
                pairs, larger = stars[apex.bit_length()]
                if pairs & mask & ~apart:
                    continue
                if not larger or all(
                    r & apart or any(s & ~r == 0 for s in own) for r in larger if r & mask == r
                ):
                    return low.bit_length()
        return 0

    def strong_core(self, mask):
        """The mask of the core of K_J, J given by the bitmask ``mask``.

        The lowest dominated vertex is stripped while there is one; K_J
        strong-collapses onto the full subcomplex on the vertices left, so
        the two have the same homotopy type.  The answer is kept per mask in
        ``_cache``.
        """
        cores = self._cache["cores"]
        core = cores.get(mask)
        if core is None:
            core = mask
            while v := self.dominated_vertex(core):
                core ^= 1 << (v - 1)
            cores[mask] = core
        return core

    @staticmethod
    def _grow(level, mask, stars):
        """The next face level: each face of ``level`` gains a vertex of ``mask`` above its top.

        ``stars`` is ``_nonface_stars(mask)``.  ``f | v``, v above the top
        vertex of the face f, is a face exactly when no rest listed under v
        lies inside f: any other non-face inside ``f | v`` would already lie
        inside f, and a rest with a vertex above v never does.  Each face of
        the next level is reached exactly once, and a level in lex order of
        its tuples grows into a level in lex order.  A level that grows past
        ``FACE_LEVEL_CAPACITY`` faces raises ``CapacityError`` as soon as it
        does; the singletons, one per vertex of ``mask``, are counted first.
        """
        if level == (0,) and mask.bit_count() > FACE_LEVEL_CAPACITY:
            per_size = f"capacity is {FACE_LEVEL_CAPACITY} faces per size"
            raise CapacityError("face-level", f"{mask.bit_count()} faces of size 1; {per_size}")
        grown = []
        for f in level:
            top = f.bit_length()
            above = mask >> top << top
            while above:
                low = above & -above
                above ^= low
                pairs, larger = stars[low.bit_length()]
                if not f & pairs and not (larger and any(r & f == r for r in larger)):
                    grown.append(f | low)
                    if len(grown) > FACE_LEVEL_CAPACITY:
                        size, done = f.bit_count(), level.index(f) + 1
                        raise CapacityError(
                            "face-level",
                            f"{len(grown)} faces of size {size + 1} grown from {done} of the "
                            f"{len(level)} faces of size {size}; capacity is "
                            f"{FACE_LEVEL_CAPACITY} faces per size",
                        )
        return tuple(grown)

    def face_masks(self, size, mask=None):
        """The faces of K_J with ``size`` vertices, as bitmasks in lex order of their tuples.

        J is given by the bitmask ``mask``, all of K by default.  The levels
        of each J are kept in one store in ``_cache``, keyed by the mask, as
        a map from size to level, and each is built from its nearer end.
        With n = |J|, a level with size > n - size and at most
        ``FACE_LEVEL_CAPACITY`` candidates, C(n, size), is read off the
        complements of its faces (``_level_from_top``); any other level
        grows bottom-up (``_grow``, from ``_nonface_stars`` of J) from the
        highest level stored below it, storing every level between.  A level
        above an empty stored level is empty.  Each level is built locally
        and stored whole unless one is there already, so threads racing on
        one J never store a level twice.
        """
        if mask is None:
            mask = self._full_mask
        n = mask.bit_count()
        if size < 0 or size > n:
            return ()
        store = self._cache["face_levels"]
        levels = store.get(mask) or store.setdefault(mask, {0: (0,)})
        known = size
        while known not in levels:
            known -= 1
        level = levels[known]
        if known == size:
            return level
        if not level:  # an empty level below has no faces above it
            return ()
        if size > n - size and math.comb(n, size) <= FACE_LEVEL_CAPACITY:
            return levels.setdefault(size, self._level_from_top(size, mask))
        stars = self._nonface_stars(mask)
        while known < size and level:
            known += 1
            level = levels.setdefault(known, self._grow(level, mask, stars))
        return level if known == size else ()

    def _level_from_top(self, size, mask):
        """The faces of K_J with ``size`` vertices, J the bitmask ``mask``, from their complements.

        T is a face of K_J exactly when C = J - T meets every minimal
        non-face inside J.  Each is read once from ``_nonface_stars``, under
        its top vertex, pairs first.  The (|J| - size)-subsets C come in lex
        order, so their complements come in reverse lex order, and the kept
        faces are reversed.
        """
        stars = self._nonface_stars()
        bits = list(_bits(mask))
        pairs, larger = [], []
        for top in bits:
            near, far = stars[top.bit_length()]
            pairs.extend(top | u for u in _bits(near & mask & (top - 1)))
            larger.extend(top | r for r in far if r < top and r & mask == r)
        complements = list(map(sum, itertools.combinations(bits, len(bits) - size)))
        for nf in pairs + larger:  # one pass per non-face over the complements left
            complements = list(filter(nf.__and__, complements))
        return tuple(mask ^ c for c in reversed(complements))

    def induced_face_levels(self, mask):
        """The face levels of K_J, J given by the bitmask ``mask``, kept nowhere.

        Yields the faces of K_J with 0, 1, 2, ... vertices, up to the last
        nonempty level, as bitmasks over K's own vertices in lex order: the
        levels of ``face_masks``, grown by ``_grow`` from ``_nonface_stars``
        of J, for their one reader: the walk over all 2^m subsets, which
        would otherwise store 2^m entries.
        """
        stars = self._nonface_stars(mask)
        level = (0,)
        while level:
            yield level
            level = self._grow(level, mask, stars)

    def faces(self, size):
        """All faces with ``size`` vertices, as sorted tuples in lex order (not kept)."""
        return tuple(_tuple_of(f) for f in self.face_masks(size))

    @property
    def dim(self):
        """Dimension: one less than the largest face size; -1 for {emptyset}."""
        if "dim" not in self._cache:
            self._cache["dim"] = max(f.bit_count() for f in self._max_face_masks()) - 1
        return self._cache["dim"]

    def _max_face_masks(self):
        if "maximal_faces" not in self._cache:
            trans = _minimal_transversals(self._mf_masks, "maximal-faces")
            self._cache["maximal_faces"] = tuple(
                sorted(self._full_mask ^ t for t in trans)
            )
        return self._cache["maximal_faces"]

    def maximal_faces(self):
        return tuple(sorted(_tuple_of(f) for f in self._max_face_masks()))

    # -- operations ----------------------------------------------------------

    def induced(self, vertices):
        """The induced subcomplex on ``vertices``, relabeled to 1..|I|.

        The minimal non-faces of the result are exactly the minimal non-faces
        contained in the vertex set.  The empty vertex set yields the complex
        {emptyset}, whose reduced cohomology has rank 1 in degree -1; this is
        the convention that makes Hochster-type sums literally correct.
        """
        mask = _mask_of(vertices, self.m)
        # vertex v of the set becomes the vertex numbered by its place in it
        mf = [
            sum(1 << (mask & (v - 1)).bit_count() for v in _bits(nf))
            for nf in self._mf_masks
            if nf & mask == nf
        ]
        labels = tuple(self.labels[v.bit_length() - 1] for v in _bits(mask))
        return SimplicialComplex._from_masks(mask.bit_count(), mf, labels)

    def join(self, other):
        """Simplicial join; the second factor's vertices are shifted by self.m."""
        mf = self._mf_masks + tuple(nf << self.m for nf in other._mf_masks)
        return SimplicialComplex._from_masks(self.m + other.m, mf, self.labels + other.labels)

    def structure_report(self):
        """Flagness and connectivity read off the minimal non-face sizes.

        A complex is flag iff every minimal non-face is a pair; it is
        q-connected iff every minimal non-face has at least q+1 vertices.
        A full simplex is q-connected for all q (connectivity = +inf).
        """
        if not self._mf_masks:
            return StructureReport(True, math.inf)
        sizes = [nf.bit_count() for nf in self._mf_masks]
        return StructureReport(all(s == 2 for s in sizes), min(sizes) - 1)

    def stellar_vertex_cut(self, face):
        """Stellar subdivision of a maximal face: the nerve move of a vertex cut.

        The face is removed, a new vertex m+1 is added, and the boundary of
        the face is coned over the new vertex.  The induced subcomplex on the
        old vertex set keeps its 1-skeleton unchanged.  Its minimal non-faces are
        K's (less those holding the face), the face, and m+1 with each other vertex.
        """
        fmask = _mask_of(face, self.m)
        if fmask not in self._max_face_masks():
            raise InputError(f"{_tuple_of(fmask)} is not a maximal face")
        if not fmask & (fmask - 1):
            raise GhostVertexError("cutting a maximal singleton would orphan its vertex")
        w = 1 << self.m
        mf = [*self._mf_masks, fmask, *(w | v for v in _bits(self._full_mask ^ fmask))]
        return SimplicialComplex._from_masks(self.m + 1, mf, self.labels + (str(self.m + 1),))

    # -- 1-skeleton helpers ---------------------------------------------------

    def component_count(self, vertices=None):
        """Components of the 1-skeleton on ``vertices`` (default all; isolated ones count).

        A bitmask flood fill: an edge is a face exactly when it is not a
        minimal non-face, so v reaches each vertex of the set outside its pairs.
        """
        mask = self._full_mask if vertices is None else _mask_of(vertices, self.m)
        return len(self.component_masks(mask))

    def component_masks(self, mask):
        """The components of the 1-skeleton of K_J as bitmasks, J given by the bitmask ``mask``.

        Listed by their lowest vertex, lowest first.
        """
        out = []
        while mask:
            out.append(self.component_mask(mask))
            mask ^= out[-1]
        return out

    def component_mask(self, mask):
        """The component of the lowest vertex of J in the 1-skeleton of K_J, as a bitmask.

        J is given by the bitmask ``mask``; 0 for the empty set.
        """
        stars = self._nonface_stars()
        rest = mask
        frontier = rest & -rest
        while frontier:  # rest never meets the frontier, so ^ adds what low reaches
            rest &= ~frontier
            low = frontier & -frontier
            frontier ^= low | rest & ~stars[low.bit_length()][0]
        return mask ^ rest


# -- spec-level operation names -----------------------------------------------


def from_minimal_nonfaces(m, minimal_nonfaces, labels=None):
    return SimplicialComplex(m, minimal_nonfaces, labels)


def from_maximal_faces(m, maximal_faces, labels=None):
    return SimplicialComplex.from_maximal_faces(m, maximal_faces, labels)


def maximal_faces(K):
    return K.maximal_faces()


def induced_subcomplex(K, vertices):
    return K.induced(vertices)


def join(K1, K2):
    return K1.join(K2)


def structure_report(K):
    return K.structure_report()


def stellar_vertex_cut(K, face):
    return K.stellar_vertex_cut(face)


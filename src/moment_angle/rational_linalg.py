"""Exact rational chain-complex machinery.

Coboundary matrices of simplicial cochain complexes, assembled from levels
of bitmask faces (so a caller can pass the faces of an induced subcomplex
without building it), reduced cohomology ranks, and a deterministic sparse
solver over the rationals.  ``_reduce`` is the package's single rational
elimination, so the determinism convention lives here: it yields the
canonical reduced row echelon form with the fixed left-to-right column
order.  Every basis choice (cohomology representatives, independent
indeterminacy vectors) is read from ``SparseMatrix.pivot_columns`` of a
matrix whose columns are the candidates in order: a column is a pivot
exactly when it is independent of the columns before it.  The RREF is
canonical, so the answers do not depend on pivot-row choices (which are
made to limit fill-in).

Each matrix caches its elimination.  Reading its rank or pivot columns runs
the bare elimination; the first solve against it runs the elimination with
a log of its row operations, and every solve, the first included, replays
that log on the right-hand side alone and reads the particular solution
(free variables zero) from the pivot rows.
``rank_mod_p`` is a separate GF(p) elimination, kept on purpose as an
independent oracle for the rational path.

Coefficients are arbitrary-precision rationals: gmpy2.mpq when available
(it is a drop-in, much faster implementation), fractions.Fraction otherwise.
"""

import itertools
from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

from .errors import InputError

_ZERO = Rational(0)
_ONE = Rational(1)


class SparseMatrix:
    """Immutable sparse matrix over the rationals; no explicit zeros stored.

    Its elimination is cached: the pivot columns once a rank is read, and
    the row-operation log once it is solved against.
    """

    __slots__ = ("nrows", "ncols", "entries", "_pivots", "_log")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise InputError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                v = Rational(v)
                if v:
                    clean[(r, c)] = v
        self.entries = clean
        self._pivots = None
        self._log = None

    def entry(self, r, c):
        return self.entries.get((r, c), _ZERO)

    def rows_as_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def is_zero(self):
        return not self.entries

    def with_columns(self, vectors):
        """The matrix [self | vectors]: each vector (length nrows) becomes a new column."""
        entries = dict(self.entries)
        for c, vec in enumerate(vectors, start=self.ncols):
            for r, v in enumerate(vec):
                if v:
                    entries[(r, c)] = v
        return SparseMatrix(self.nrows, self.ncols + len(vectors), entries)

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise InputError("dimension mismatch in matrix product")
        by_row = other.rows_as_dicts()
        out = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row[k].items():
                key = (r, c)
                s = out.get(key, _ZERO) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return SparseMatrix(self.nrows, other.ncols, out)

    def pivot_columns(self):
        """Pivot columns of the canonical RREF, ascending.

        Column c is a pivot exactly when it is not in the span of columns
        0..c-1, so these are the columns a greedy left-to-right scan keeps.
        """
        if self._pivots is None:
            self._pivots = tuple(c for c, _ in _reduce(self.rows_as_dicts(), self.ncols))
        return self._pivots

    def rank(self):
        return len(self.pivot_columns())

    def solve(self, b):
        """The particular solution of self x = b (free variables zero), or None.

        The first call records the row operations of this matrix's
        elimination; every call replays them on ``b`` alone.  Afterwards the
        row that became pivot c holds x_c, and b is inconsistent exactly when
        some row that holds no pivot is nonzero.
        """
        if len(b) != self.nrows:
            raise InputError(f"right-hand side has length {len(b)}, expected {self.nrows}")
        if self._log is None:
            log = []
            self._pivots = tuple(c for c, _ in _reduce(self.rows_as_dicts(), self.ncols, log))
            self._log = tuple(log)
        b = [Rational(v) if v else _ZERO for v in b]
        for _, row, scale, targets, factors in self._log:
            v = b[row]
            if v:
                if scale is not None:
                    v = b[row] = v * scale
                for target, factor in zip(targets, factors):
                    b[target] -= factor * v
        x = [_ZERO] * self.ncols
        for col, row, *_ in self._log:
            x[col] = b[row]
            b[row] = _ZERO
        if any(b):
            return None
        return tuple(x)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def _axpy(target, source, factor):
    """target += factor * source, dropping entries that become zero."""
    for c, v in source.items():
        s = target.get(c)
        s = factor * v if s is None else s + factor * v
        if s:
            target[c] = s
        else:
            del target[c]


def _reduce(rows, ncols, log=None):
    """Gauss-Jordan over the rationals: the pivots of the canonical RREF.

    Returns (column, normalized fully reduced row) pairs in increasing
    column order.  They are exactly the nonzero rows of the canonical RREF,
    independent of the pivot-row selection below, which merely limits
    fill-in.  Rows keep their input positions throughout.  A list ``log``
    receives one entry per pivot, in order: (column, row, scale, targets,
    factors) says that the row at position ``row`` was multiplied by
    ``scale`` (None for 1) to become the pivot of ``column``, after which
    factors[i] times it was subtracted from the row at position targets[i].
    """
    rows = [dict(r) for r in rows]
    live = [i for i, r in enumerate(rows) if r]
    pivots = []
    for col in range(ncols):
        best = -1
        best_len = None
        for i in live:
            r = rows[i]
            if col in r and (best_len is None or len(r) < best_len):
                best, best_len = i, len(r)
        if best < 0:
            continue
        live.remove(best)
        piv = rows[best]
        scale = _ONE / piv[col]
        if scale != 1:
            piv = rows[best] = {c: v * scale for c, v in piv.items()}
        else:
            scale = None
        ops = []
        for _, p in pivots:
            f = rows[p].get(col)
            if f is not None:
                _axpy(rows[p], piv, -f)
                ops.append((p, f))
        survivors = []
        for i in live:
            r = rows[i]
            f = r.get(col)
            if f is not None:
                _axpy(r, piv, -f)
                ops.append((i, f))
            if r:
                survivors.append(i)
        live = survivors
        pivots.append((col, best))
        if log is not None:
            targets, factors = zip(*ops) if ops else ((), ())
            log.append((col, best, scale, targets, factors))
    return [(c, rows[i]) for c, i in pivots]


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution (free variables zero) plus the kernel of A."""

    vector: tuple
    pivot_columns: tuple
    free_columns: tuple
    nullspace: tuple  # basis vectors of ker A, one per free column, in order

    def is_zero(self):
        return all(v == 0 for v in self.vector)


def _nullspace(A):
    """Free columns of A and the canonical basis of ker A, one vector per free column."""
    ncols = A.ncols
    pivots = _reduce(A.rows_as_dicts(), ncols)
    pivot_set = {c for c, _ in pivots}
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [_ZERO] * ncols
        vec[f] = _ONE
        for pc, prow in pivots:
            v = prow.get(f)
            if v is not None:
                vec[pc] = -v
        basis.append(tuple(vec))
    return tuple(free), tuple(basis)


def solve_linear(A, b):
    """Deterministic particular solution of A x = b, or None if inconsistent.

    The solution is ``A.solve(b)``, read off the RREF with free variables
    set to zero; the result also carries the canonical nullspace basis so
    callers can describe the full solution set.
    """
    vector = A.solve(b)
    if vector is None:
        return None
    free, basis = _nullspace(A)
    return LinearSolution(
        vector=vector,
        pivot_columns=A.pivot_columns(),
        free_columns=free,
        nullspace=basis,
    )


def nullspace_basis(A):
    return _nullspace(A)[1]


CROSS_CHECK_PRIMES = (2, 3)


def rank_mod_p(A, p):
    """Rank over the prime field GF(p); a cross-check mode only (p = 2 or 3).

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
    """Reduced cohomology ranks over GF(p), for cross-checking only."""
    levels = list(itertools.takewhile(bool, map(K.face_masks, itertools.count())))
    dranks = [rank_mod_p(_coboundary(low, up), p) for low, up in zip(levels, levels[1:])]
    return CohomologyProfile(cohomology_ranks(map(len, levels), dranks))


def cohomology_ranks(dims, dranks):
    """Cohomology ranks of a cochain complex from its level dimensions.

    ``dims`` are the dimensions of the levels in order and ``dranks`` the
    ranks of the differentials between consecutive levels, one fewer; the
    top differential is zero.  rank H^k = dims[k] - dranks[k] - dranks[k-1].
    """
    ranks = []
    prev = 0
    for dim, r in zip(dims, [*dranks, 0]):
        ranks.append(dim - r - prev)
        prev = r
    return tuple(ranks)


# -- simplicial cochain complexes ----------------------------------------------


def _coboundary(domain, target):
    """Coboundary matrix from a list of face masks of one size to the next size up.

    Row and column order is the order of the two lists.  Inserting vertex v
    into a face contributes (-1)^k, where k counts the vertices of the target
    face below v (its 0-based position there).  Every module in the package
    inherits this ascending-orientation convention.
    """
    index = {f: i for i, f in enumerate(domain)}
    entries = {}
    for col, tau in enumerate(target):
        rest = tau
        k = 0
        while rest:
            low = rest & -rest
            entries[(index[tau ^ low], col)] = -1 if k & 1 else 1
            rest ^= low
            k += 1
    return SparseMatrix(len(domain), len(target), entries)


def coboundary_matrix(K, d):
    """Matrix of the reduced-cochain differential C^d -> C^{d+1}.

    Rows are indexed by the d-faces and columns by the (d+1)-faces of K, both
    in lexicographic order of their vertex tuples.
    """
    if d < -1 or d > K.dim:
        raise InputError(f"degree {d} outside -1..{K.dim}")
    return _coboundary(K.face_masks(d + 1), K.face_masks(d + 2))


@dataclass(frozen=True)
class CohomologyProfile:
    """Ranks of reduced cohomology for degrees -1 .. dim K."""

    ranks: tuple

    def rank(self, d):
        i = d + 1
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0

    @property
    def max_degree(self):
        return len(self.ranks) - 2

    def items(self):
        return tuple((d - 1, r) for d, r in enumerate(self.ranks))

    def total(self):
        return sum(self.ranks)

    def is_zero(self):
        return all(r == 0 for r in self.ranks)


def cohomology_profile(levels):
    """Reduced rational cohomology ranks of a complex given by its face levels.

    ``levels`` yields the faces with 0, 1, 2, ... vertices as bitmasks, each
    level in a fixed order; it is read up to the first empty level.  rank H^d
    = dim ker(delta: C^d -> C^{d+1}) - rank(delta: C^{d-1} -> C^d).
    """
    levels = list(itertools.takewhile(bool, levels))
    dranks = [_coboundary(lower, upper).rank() for lower, upper in zip(levels, levels[1:])]
    return CohomologyProfile(cohomology_ranks(map(len, levels), dranks))


def reduced_cohomology_ranks(K):
    """Reduced rational cohomology ranks of K in all degrees.

    For the complex {emptyset} the profile is (1,): rank 1 in degree -1.
    """
    return cohomology_profile(map(K.face_masks, itertools.count()))


def cohomology_rank(lower, middle, upper):
    """Rank of reduced cohomology at the face level ``middle``.

    ``lower`` and ``upper`` are the face levels one size below and above
    (as bitmasks; empty where there are none).  Cheaper than the profile,
    which eliminates every differential.
    """
    if not middle:
        return 0
    r_out = _coboundary(middle, upper).rank() if upper else 0
    r_in = _coboundary(lower, middle).rank() if lower else 0
    return len(middle) - r_out - r_in


def reduced_cohomology_rank(K, d):
    """Rank of a single reduced cohomology group (cheaper than the profile)."""
    return cohomology_rank(K.face_masks(d), K.face_masks(d + 1), K.face_masks(d + 2))

"""Exact rational chain-complex machinery.

Coboundary matrices of simplicial cochain complexes, reduced cohomology
ranks, and a deterministic sparse solver over the rationals.  ``_reduce`` is
the package's single rational elimination, so the determinism convention
lives here: it yields the canonical reduced row echelon form with the fixed
left-to-right column order.  Solutions set every free variable to zero, and
every basis choice (cohomology representatives, independent indeterminacy
vectors) is read from ``SparseMatrix.pivot_columns`` of a matrix whose
columns are the candidates in order: a column is a pivot exactly when it is
independent of the columns before it.  The RREF is canonical, so the answers
do not depend on pivot-row choices (which are made to limit fill-in).
``rank_mod_p`` is a separate GF(p) elimination, kept on purpose as an
independent oracle for the rational path.

Coefficients are arbitrary-precision rationals: gmpy2.mpq when available
(it is a drop-in, much faster implementation), fractions.Fraction otherwise.
"""

from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

from .errors import InputError

_ZERO = Rational(0)
_ONE = Rational(1)


class SparseMatrix:
    """Immutable sparse matrix over the rationals; no explicit zeros stored."""

    __slots__ = ("nrows", "ncols", "entries", "_pivots")

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
            pivots, _ = _reduce(self.rows_as_dicts(), self.ncols)
            self._pivots = tuple(c for c, _ in pivots)
        return self._pivots

    def rank(self):
        return len(self.pivot_columns())

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


def _reduce(rows, pivot_cols_limit):
    """Gauss-Jordan over the rationals: returns (pivots, leftover rows).

    ``pivots`` is a list of (column, normalized fully reduced row) in
    increasing column order; only columns < pivot_cols_limit are eligible as
    pivots, so callers can append an augmentation column beyond the limit.
    Leftover rows are nonzero rows supported entirely on columns >= the
    limit (an inconsistency witness when solving).  The resulting pivot rows
    are exactly the nonzero rows of the canonical RREF, independent of the
    pivot-row selection below, which merely limits fill-in.
    """
    rows = [r for r in (dict(r) for r in rows) if r]
    pivots = []
    for col in range(pivot_cols_limit):
        best = -1
        best_len = None
        for idx, r in enumerate(rows):
            if col in r and (best_len is None or len(r) < best_len):
                best, best_len = idx, len(r)
        if best < 0:
            continue
        piv = rows.pop(best)
        inv = _ONE / piv[col]
        if inv != 1:
            piv = {c: v * inv for c, v in piv.items()}
        for _, prow in pivots:
            f = prow.get(col)
            if f is not None:
                _axpy(prow, piv, -f)
        survivors = []
        for r in rows:
            f = r.get(col)
            if f is not None:
                _axpy(r, piv, -f)
            if r:
                survivors.append(r)
        rows = survivors
        pivots.append((col, piv))
    pivots.sort(key=lambda t: t[0])
    return pivots, rows


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution (free variables zero) plus the kernel of A."""

    vector: tuple
    pivot_columns: tuple
    free_columns: tuple
    nullspace: tuple  # basis vectors of ker A, one per free column, in order

    def is_zero(self):
        return all(v == 0 for v in self.vector)


def _nullspace_from_pivots(pivots, ncols):
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

    The solution is read off the RREF with free variables set to zero; the
    result also carries the canonical nullspace basis so callers can describe
    the full solution set.
    """
    if len(b) != A.nrows:
        raise InputError(f"right-hand side has length {len(b)}, expected {A.nrows}")
    aug = A.ncols
    rows = A.rows_as_dicts()
    for r, v in enumerate(b):
        v = Rational(v)
        if v:
            rows[r][aug] = v
    pivots, leftovers = _reduce(rows, A.ncols)
    if leftovers:
        return None
    vector = [_ZERO] * A.ncols
    for pc, prow in pivots:
        v = prow.get(aug)
        if v is not None:
            vector[pc] = v
    free, basis = _nullspace_from_pivots(pivots, A.ncols)
    return LinearSolution(
        vector=tuple(vector),
        pivot_columns=tuple(c for c, _ in pivots),
        free_columns=free,
        nullspace=basis,
    )


def nullspace_basis(A):
    pivots, _ = _reduce(A.rows_as_dicts(), A.ncols)
    return _nullspace_from_pivots(pivots, A.ncols)[1]


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
    dim = K.dim
    counts = [len(K.faces(k)) for k in range(dim + 2)]
    dranks = [rank_mod_p(coboundary_matrix(K, d), p) for d in range(-1, dim)]
    dranks.append(0)
    ranks = []
    prev = 0
    for i in range(dim + 2):
        ranks.append(counts[i] - dranks[i] - prev)
        prev = dranks[i]
    return CohomologyProfile(tuple(ranks))


# -- simplicial cochain complexes ----------------------------------------------


def coboundary_matrix(K, d):
    """Matrix of the reduced-cochain differential C^d -> C^{d+1}.

    Rows are indexed by the d-faces and columns by the (d+1)-faces of K, both
    in lexicographic order; inserting vertex v at (0-based) position k of the
    target face contributes the sign (-1)^k.  Every module in the package
    inherits this ascending-orientation convention.
    """
    if d < -1 or d > K.dim:
        raise InputError(f"degree {d} outside -1..{K.dim}")
    domain = K.faces(d + 1)
    target = K.faces(d + 2)
    index = {f: i for i, f in enumerate(domain)}
    entries = {}
    for col, tau in enumerate(target):
        for k, v in enumerate(tau):
            sigma = tau[:k] + tau[k + 1 :]
            entries[(index[sigma], col)] = -_ONE if k & 1 else _ONE
    return SparseMatrix(len(domain), len(target), entries)


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


def reduced_cohomology_ranks(K):
    """Reduced rational cohomology ranks of K in all degrees.

    rank H^d = dim ker(delta: C^d -> C^{d+1}) - rank(delta: C^{d-1} -> C^d).
    For the complex {emptyset} the profile is (1,): rank 1 in degree -1.
    """
    dim = K.dim
    counts = [len(K.faces(k)) for k in range(dim + 2)]
    dranks = [coboundary_matrix(K, d).rank() for d in range(-1, dim)]
    dranks.append(0)  # top differential is zero
    ranks = []
    prev = 0
    for i in range(dim + 2):
        ranks.append(counts[i] - dranks[i] - prev)
        prev = dranks[i]
    return CohomologyProfile(tuple(ranks))


def reduced_cohomology_rank(K, d):
    """Rank of a single reduced cohomology group (cheaper than the profile)."""
    if d < -1 or d > K.dim:
        return 0
    n = len(K.faces(d + 1))
    r_out = coboundary_matrix(K, d).rank() if d < K.dim else 0
    r_in = coboundary_matrix(K, d - 1).rank() if d > -1 else 0
    return n - r_out - r_in

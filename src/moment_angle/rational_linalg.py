"""Exact rational chain-complex machinery.

Coboundary matrices of simplicial cochain complexes, assembled from levels
of bitmask faces (so a caller can pass the faces of an induced subcomplex
without building it), reduced cohomology ranks, and a deterministic sparse
solver over the rationals.

``_reduce`` is the package's single rational elimination, and it works in
integers.  Each row is scaled to a primitive integer row (row scaling keeps
the row space, so it keeps the RREF), and a row is cleared by another with
fraction-free steps r <- (q r - f p) / g that keep it primitive, in the
sense of Bareiss's integer-preserving elimination.  The pivot row of each
column is found through an index of the rows holding that column.  Rationals
appear only when a result is read: a residual, a kernel vector or a
solution.

The determinism convention lives here: the answers are those of the
canonical reduced row echelon form with the fixed left-to-right column
order.  Every basis choice keeps the candidates, in order, that are
independent of the ones before them, which are the pivot columns of a
matrix whose columns are the candidates.  That greedy scan is
``greedy_span``, which grows the matrix of the vectors kept so far one
column at a time and keeps a candidate when ``solve`` finds it off that
span, so it reads no candidate past the last one it needs: the independent
indeterminacy vectors are the ones it keeps, the cohomology representatives
are the cocycles whose residuals modulo the coboundary matrix (see
``residual``) it keeps, and a class's coordinates are the solution over the
kept residuals.  The RREF is canonical, so the answers do not depend on
pivot-row choices (which are made to limit fill-in).

Each matrix is eliminated once.  A matrix whose only reader is its rank
(every simplicial coboundary and real-model differential read for a
cohomology rank) goes to ``rank_of_columns``, which hands its shorter
side to ``_reduce`` as rows, in place, with no log and no copy, and
keeps only the pivots: a forward pass zeroes nrows - rank rows, so the
shorter side zeroes the fewest.  These matrices come in chains D_0, D_1,
... with D_{k+1} D_k = 0, and a chain is eliminated lowest first, each
differential without the cells of its domain that the pivots of the one
before it cover: the clearing of persistent homology (Chen and Kerber,
"Persistent homology computation with a twist", 2011; Bauer, Kerber and
Reininghaus, "Clear and compress", 2014).  The clearing lemma: write
consecutive maps D: C^k -> C^{k+1} and E: C^{k+1} -> C^{k+2}, E D = 0,
with their codomains as rows, and let P be cells of C^{k+1} whose rows of
D are independent and span D's row space; the pivots of D have such rows
on whichever side D was eliminated, and ``rank_of_columns`` returns both
sides.  D has columns whose block on P is invertible, and they lie in the
kernel of E, so each column p in P of E is a combination of E's columns
outside P, and E keeps its rank without them; the pivots of E so reduced
again have independent rows spanning E's row space.  A cleared
differential keeps rank + (cohomology of its domain) cells on its domain
side, so its forward pass zeroes at most one row per cohomology class of
that level.  Any such P will do, pivots or not, so the two lowest
simplicial coboundaries are not eliminated: from {emptyset} any one vertex
is P, and from the vertices the edges of a spanning forest are, since the
row of edge {a, b} is e_b - e_a and a forest's |V| - c rows are
independent and span the row space (c the number of components).  H^0, and
H^1 of a complex with no triangle, need no elimination at all.

A ``SparseMatrix`` runs its forward pass on a copy of its rows, with a
log of the integer row operations, and keeps the pivots, that log and
the pivot rows.  The pivot row of column c holds no column below c
(every other row that held an earlier column was cleared when that
column was taken, and fill-in adds only columns above the pivot), so the
pivot rows are a row echelon form and no backward pass is needed.  Rank
and pivot columns are read off the pivots.
``residual`` replays the forward log on a vector, which leaves it
nonzero only at the positions holding no pivot; ``solve`` does the same
and then solves the pivot rows by one back substitution, last pivot
first, with the free variables zero; ``kernel`` yields the canonical
kernel vectors one free column at a time by the same back substitution.
Exact rationals are canonical, so these are the values the RREF would
give.  The stored state is never mutated, so threads may race to compute
it.

Coefficients are arbitrary-precision rationals: gmpy2.mpq when available
(it is a drop-in, much faster implementation), fractions.Fraction otherwise.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

from .errors import InputError

_ZERO = Rational(0)
_ONE = Rational(1)


class SparseMatrix:
    """Immutable sparse matrix over the rationals; no explicit zeros stored.

    The matrix is kept as one dict per row (column -> nonzero entry).  Int
    entries stay ints; every other entry (a bool included) becomes a
    Rational.  The first read of the rank, the pivot columns, a residual, a
    solution or the kernel runs the forward pass once, on a copy of the
    rows, with its log, and keeps the pivots, the log and the pivot rows,
    which are a row echelon form; every later read shares them, and they
    are never changed.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_forward")

    def __init__(self, nrows, ncols, entries=None):
        rows = [{} for _ in range(nrows)]
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise InputError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                if type(v) is not int and type(v) is not Rational:
                    v = Rational(v)
                if v:
                    rows[r][c] = v
        self._init(nrows, ncols, rows)

    @classmethod
    def from_rows(cls, ncols, rows):
        """The matrix whose row r is the dict ``rows[r]``, taken as it is (not copied).

        For builders that write their rows directly: every entry must be a
        nonzero int or Rational in a column below ``ncols``, and no caller
        may change the dicts afterwards.
        """
        matrix = cls.__new__(cls)
        matrix._init(len(rows), ncols, rows)
        return matrix

    def _init(self, nrows, ncols, rows):
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows
        self._forward = None

    @property
    def entries(self):
        """The nonzero entries as a dict (row, column) -> value."""
        return {(r, c): v for r, row in enumerate(self._rows) for c, v in row.items()}

    def entry(self, r, c):
        return self._rows[r].get(c, _ZERO)

    def rows_as_dicts(self):
        """A fresh copy of the rows, one dict (column -> entry) per row."""
        return [row.copy() for row in self._rows]

    def is_zero(self):
        return not any(self._rows)

    def with_columns(self, vectors):
        """The matrix [self | vectors]: each vector (length nrows) becomes a new column."""
        rows = self.rows_as_dicts()
        for c, vec in enumerate(vectors, start=self.ncols):
            if len(vec) != self.nrows:
                raise InputError(f"column has length {len(vec)}, expected {self.nrows}")
            for row, v in zip(rows, vec):
                if type(v) is not int and type(v) is not Rational:
                    v = Rational(v)
                if v:
                    row[c] = v
        return SparseMatrix.from_rows(self.ncols + len(vectors), rows)

    def _forward_pass(self):
        """(columns, positions, log, rows) of the logged forward pass.

        The pivots are read in column order: their columns, the positions of
        their rows, the log of the forward row operations (see ``_reduce``)
        and the integer pivot rows.  Every other row is zero afterwards.
        """
        if self._forward is None and not self.ncols:  # an empty span: nothing to eliminate
            self._forward = ((), (), (), ())
        elif self._forward is None:
            rows = self.rows_as_dicts()
            log = []
            columns, positions = tuple(zip(*_reduce(rows, self.ncols, log))) or ((), ())
            self._forward = (columns, positions, tuple(log), tuple(rows[j] for j in positions))
        return self._forward

    def pivot_columns(self):
        """Pivot columns of the canonical RREF, ascending.

        Column c is a pivot exactly when it is not in the span of columns
        0..c-1, so these are the columns a greedy left-to-right scan keeps.
        Only the forward pass of the elimination runs for them.
        """
        return self._forward_pass()[0]

    def rank(self):
        return len(self._forward_pass()[0])

    def _rhs(self, b):
        if len(b) != self.nrows:
            raise InputError(f"right-hand side has length {len(b)}, expected {self.nrows}")
        return [v if type(v) is Rational else Rational(v) if v else _ZERO for v in b]

    def residual(self, b):
        """``b`` reduced by the forward pass: zero exactly when self x = b is solvable.

        The forward log is replayed on ``b`` alone, in rationals, and the
        positions of the pivot rows are set to zero.  The result is linear
        in ``b``, its kernel is the column space, and every entry at a pivot
        position is zero.
        """
        b = self._rhs(b)
        _, positions, log, _ = self._forward_pass()
        _replay(b, log)
        for j in positions:
            b[j] = _ZERO
        return tuple(b)

    def solve(self, b):
        """The particular solution of self x = b (free variables zero), or None.

        The forward log is replayed on ``b`` alone, in rationals; b is
        inconsistent exactly when some position that holds no pivot is then
        nonzero.  Otherwise the pivot rows are solved by back substitution.
        """
        b = self._rhs(b)
        columns, positions, log, _ = self._forward_pass()
        _replay(b, log)
        values = [b[j] for j in positions]
        for j in positions:
            b[j] = _ZERO
        if any(b):
            return None
        return self._back_substitution(len(columns), values, {})

    def kernel(self):
        """The canonical basis of the kernel, one vector per free column, ascending.

        The vector of free column f has 1 at f, 0 at the other free columns,
        and its pivot entries are solved from the pivot rows of the columns
        below f.  The vectors are built lazily, one per iteration step.
        """
        columns = self.pivot_columns()
        pivots = set(columns)
        zeros = [_ZERO] * len(columns)
        for f in range(self.ncols):
            if f not in pivots:
                yield self._back_substitution(bisect_left(columns, f), zeros, {f: _ONE})

    def _back_substitution(self, n, values, x):
        """The dense vector x solving the first n pivot rows, last pivot first.

        Pivot row k (column c) reads row . x = values[k], and x_c is the one
        unknown left in it; ``x`` holds the columns fixed in advance and
        every column it is not given stays zero.
        """
        columns, _, _, rows = self._forward_pass()
        for k in reversed(range(n)):
            c, row, v = columns[k], rows[k], values[k]
            for i, a in row.items():
                y = x.get(i)
                if y:
                    v -= a * y
            if v:
                p = row[c]
                x[c] = v if p == 1 else -v if p == -1 else v / p
        vec = [_ZERO] * self.ncols
        for i, v in x.items():
            vec[i] = v
        return tuple(vec)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={sum(map(len, self._rows))})"


def _replay(b, log):
    """Apply logged row operations (i, j, q, f, g) to the rational vector ``b`` in place."""
    for i, j, q, f, g in log:
        u, v = b[i], b[j]
        if f and v:
            if q != 1:
                u = q * u
            u = u - v if f == 1 else u + v if f == -1 else u - f * v
        elif not u:
            continue
        elif q != 1:
            u = q * u
        b[i] = u / g if g != 1 else u


def _reduce(rows, ncols, log=None):
    """Fraction-free forward elimination over the integers: the pivots of the canonical RREF.

    ``rows`` is a list of dicts (column -> nonzero int or Rational), one per
    row; each is replaced in place by an integer row, and rows keep their
    positions.  Returns the pivots as (column, position) pairs in increasing
    column order; the pivot columns are those of the canonical RREF,
    whichever rows are chosen as pivots.  Every row that is not a pivot is
    zero afterwards.

    Each row is first made primitive: scaled by the lcm of its denominators
    and divided by the gcd of its entries.  Then each column is taken in
    turn.  Its pivot is the shortest row (the lowest position among equals)
    that holds the column and is not yet a pivot, read from a column index.
    Every other such row r becomes (q r - f p) / g, where p is the pivot
    row, q / f is p's entry over r's entry in the column in lowest terms
    (q > 0), and g is the content of the result.

    ``log``, when given, receives every row operation in order as
    (i, j, q, f, g): the row at position i became (q * row i - f * row j) / g.
    The initial scaling of row i is logged as (i, i, q, 0, g).  Without a
    log only the pivots are read.
    """
    index = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        if not row:
            continue
        den = 1
        try:
            g = gcd(*row.values())
        except TypeError:  # gcd takes ints only: the row has Rational entries
            den = lcm(*(v.denominator for v in row.values()))
            row = {c: int(v.numerator * (den // v.denominator)) for c, v in row.items()}
            g = gcd(*row.values())
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        if log is not None and (den != 1 or g != 1):
            log.append((i, i, den, 0, g))
        rows[i] = row
        for c in row:
            index[c].add(i)
    pivots = []
    for c in range(ncols):
        targets = index[c]
        if not targets:
            continue
        if len(targets) == 1:
            (j,) = targets
        else:
            j = min(targets, key=lambda i: (len(rows[i]), i))
        for k in rows[j]:
            index[k].discard(j)
        if targets:  # j has left it: these are the rows to clear
            _clear(rows, index, log, c, j, targets)
            targets.clear()
        pivots.append((c, j))
    return pivots


def _clear(rows, index, log, c, j, targets):
    """Clear column c from the rows at the positions ``targets`` with the pivot row j.

    Each target row r becomes (q r - f p) / g (see ``_reduce``) and is
    logged when there is a log; ``index`` (column -> positions of the rows
    holding it) is kept current.  Row j is not changed.
    """
    pivot = rows[j]
    p = pivot[c]
    rest = [(k, v) for k, v in pivot.items() if k != c]
    for i in targets:
        row = rows[i]
        f = row.pop(c)
        g = gcd(p, f)
        q, f = p // g, f // g
        if q < 0:
            q, f = -q, -f
        if q != 1:
            for k in row:
                row[k] *= q
        for k, v in rest:
            s = row.get(k)
            if s is None:
                row[k] = -f * v
                index[k].add(i)
            else:
                s -= f * v
                if s:
                    row[k] = s
                else:
                    del row[k]
                    index[k].discard(i)
        g = gcd(*row.values()) or 1
        if g != 1:
            for k in row:
                row[k] //= g
        if log is not None:
            log.append((i, j, q, f, g))


def _transpose(nrows, columns):
    """The row dicts (column -> entry) of the matrix whose column c is the dict ``columns[c]``."""
    rows = [{} for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows[r][c] = v
    return rows


def rank_of_columns(nrows, columns):
    """The pivots of the matrix with ``nrows`` rows whose column c is the dict ``columns[c]``.

    Each column maps a row to a nonzero int or Rational entry.  The matrix is
    eliminated once by ``_reduce`` on its shorter side, with no log: the
    columns themselves are the rows when there are fewer of them, and are
    changed in place; otherwise the row dicts are written from them.
    Nothing is kept.  The pivots come as (row, column) pairs, as many as the
    rank: their rows are independent and span the row space, and their
    columns span the column space.  A chain of differentials reads the
    cells that one of them covers and leaves those out of the next (see the
    module docstring).
    """
    # _reduce gives (column, position) pairs of the rows it eliminates
    if len(columns) < nrows:
        return _reduce(columns, nrows)
    return [(r, c) for c, r in _reduce(_transpose(nrows, columns), len(columns))]


def greedy_span(candidates, vector, nrows, limit):
    """(kept, span): the candidates whose vectors are independent of those kept before them.

    The candidates are read in order, and each is kept when its vector
    ``vector(candidate)``, of length ``nrows``, is off the span of the
    vectors kept so far, until ``limit`` are kept; those are the first
    pivot columns of the matrix whose columns are all the vectors.  ``span`` is
    the matrix whose columns are the kept vectors, grown by one column per
    kept vector, and ``span.solve`` gives a vector's unique coordinates over
    them, or None off their span.  With ``limit`` 0 no candidate is read.
    """
    kept, span = [], SparseMatrix(nrows, 0)
    for candidate in candidates if limit else ():
        vec = vector(candidate)
        if span.solve(vec) is None:
            kept.append(candidate)
            span = span.with_columns([vec])
            if len(kept) == limit:
                break
    return tuple(kept), span


@dataclass(frozen=True)
class LinearSolution:
    """Particular solution (free variables zero) plus the kernel of A."""

    vector: tuple
    pivot_columns: tuple
    free_columns: tuple
    nullspace: tuple  # basis vectors of ker A, one per free column, in order

    def is_zero(self):
        return all(v == 0 for v in self.vector)


def solve_linear(A, b):
    """Deterministic particular solution of A x = b, or None if inconsistent.

    The solution is ``A.solve(b)``, with free variables set to zero; the
    result also carries the canonical kernel basis (``A.kernel()``) so
    callers can describe the full solution set.
    """
    vector = A.solve(b)
    if vector is None:
        return None
    pivots = A.pivot_columns()
    return LinearSolution(
        vector=vector,
        pivot_columns=pivots,
        free_columns=tuple(sorted(set(range(A.ncols)) - set(pivots))),
        nullspace=nullspace_basis(A),
    )


def nullspace_basis(A):
    return tuple(A.kernel())


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


def cleared_ranks(levels, cover):
    """Ranks of the differentials between consecutive ``levels`` of a cochain complex, lowest first.

    ``cover(lower, upper, covered)`` eliminates the differential from
    ``lower`` to ``upper`` without the cells at the positions ``covered`` of
    ``lower`` and returns the positions in ``upper`` that its pivots cover,
    as many as its rank; each differential is read without the cells that
    the pivots of the one below it covered, which keeps its rank (the
    clearing lemma of the module docstring).
    """
    dranks, covered = [], ()
    for lower, upper in zip(levels, levels[1:]):
        covered = cover(lower, upper, covered)
        dranks.append(len(covered))
    return dranks


# -- simplicial cochain complexes ----------------------------------------------


def _coboundary_columns(domain, target):
    """Columns of the coboundary from a list of face masks of one size to the next size up.

    Column j maps the row of each face tau - v of ``domain``, tau =
    ``target[j]``, to its entry: inserting vertex v contributes (-1)^k,
    where k counts the vertices of tau below v (its 0-based position there).
    Rows and columns come in the order of the two lists, and a face tau - v
    left out of ``domain`` has no row.  Every module in the package inherits
    this ascending-orientation convention.
    """
    index = {f: i for i, f in enumerate(domain)}
    columns = []
    for tau in target:
        column = {}
        rest = tau
        k = 0
        while rest:
            low = rest & -rest
            r = index.get(tau ^ low)
            if r is not None:
                column[r] = -1 if k & 1 else 1
            rest ^= low
            k += 1
        columns.append(column)
    return columns


def _coboundary_pivots(domain, target, covered=()):
    """The positions in ``target`` covered by the pivots of the coboundary from ``domain``.

    The rows at the positions ``covered`` of ``domain``, those the
    coboundary into ``domain`` covered, are left out; that keeps the rank,
    which is the number of positions returned.  The two lowest coboundaries
    are read off the graph, with no elimination (see the module docstring):
    from {emptyset} the first vertex is returned, and from the vertices the
    edges of a spanning forest (``_spanning_forest``), whatever is covered.
    """
    if not target:
        return set()
    size = target[0].bit_count()
    if size == 1:
        return {0}
    if size == 2:
        return _spanning_forest(target)
    if covered:
        domain = [f for i, f in enumerate(domain) if i not in covered]
    return {c for _, c in rank_of_columns(len(domain), _coboundary_columns(domain, target))}


def _spanning_forest(edges):
    """The positions of the edges that Kruskal's scan keeps, in list order.

    An edge is kept when its two vertex bits lie in different trees of a
    union-find forest, which it then joins; the kept edges span every
    component of the graph, |V| - (number of components) of them.
    """
    parent, kept = {}, set()

    def root(x):
        while x in parent:
            up = parent[x]
            if up in parent:  # path halving
                parent[x] = up = parent[up]
            x = up
        return x

    for i, edge in enumerate(edges):
        a, b = root(edge & -edge), root(edge & (edge - 1))
        if a != b:
            parent[a] = b
            kept.add(i)
    return kept


def coboundary_matrix(K, d):
    """Matrix of the reduced-cochain differential C^d -> C^{d+1}.

    Rows are indexed by the d-faces and columns by the (d+1)-faces of K, both
    in lexicographic order of their vertex tuples.  The degree range -1..dim K
    is read off the face levels, with no dualization.
    """
    domain = K.face_masks(d + 1)
    if d < -1 or not domain:
        raise InputError(f"degree {d} outside -1..dim K: no faces with {d + 1} vertices")
    target = K.face_masks(d + 2)
    return SparseMatrix.from_rows(
        len(target), _transpose(len(domain), _coboundary_columns(domain, target))
    )


@dataclass(frozen=True)
class CohomologyProfile:
    """Ranks of reduced cohomology for degrees -1 .. dim K."""

    ranks: tuple

    def rank(self, d):
        i = d + 1
        if 0 <= i < len(self.ranks):
            return self.ranks[i]
        return 0

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
    = dim ker(delta: C^d -> C^{d+1}) - rank(delta: C^{d-1} -> C^d).  The
    coboundaries are eliminated upward, each without the rows of the faces
    that the pivots of the one below it covered (the clearing lemma of the
    module docstring), so each eliminates about its rank plus its cohomology.
    """
    levels = list(itertools.takewhile(bool, levels))
    dranks = cleared_ranks(levels, _coboundary_pivots)
    return CohomologyProfile(cohomology_ranks(map(len, levels), dranks))


def reduced_cohomology_ranks(K, mask=None):
    """Reduced rational cohomology ranks of K_J, J the bitmask ``mask`` (K by default).

    For {emptyset}, and for the empty J, the profile is (1,): rank 1 in degree -1.
    """
    return cohomology_profile(K.face_masks(size, mask) for size in itertools.count())


def reduced_cohomology_rank(K, d, mask=None):
    """Rank of reduced H^d of K_J, J the bitmask ``mask`` (all of K by default).

    Reads the face levels around degree d, none past an empty middle one:
    cheaper than the profile, which eliminates every differential.  The
    coboundary into the middle level goes first, and the middle faces its
    pivots cover are left out of the coboundary out of it.  When they cover
    the whole middle level, H^d is zero and the level above is not read.
    """
    middle = K.face_masks(d + 1, mask)
    if not middle:
        return 0
    lower = K.face_masks(d, mask)
    covered = _coboundary_pivots(lower, middle) if lower else ()
    if len(covered) == len(middle):
        return 0
    upper = K.face_masks(d + 2, mask)
    r_out = len(_coboundary_pivots(middle, upper, covered)) if upper else 0
    return len(middle) - len(covered) - r_out

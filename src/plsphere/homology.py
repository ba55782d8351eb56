"""Integer simplicial homology via elimination-based Smith normal form.

Boundary matrices are kept sparse (dict rows plus sorted column lists).
One elimination serves Z and GF(p): it walks the rows once, in index
order, and pivots each row on its unit entry in the column with the fewest
rows.  Over Z the usually tiny residual of rows without a +-1 entry is
brought to a diagonal form by least-magnitude pivots over
arbitrary-precision integers, and the diagonal is put in divisibility
order by gcd/lcm pairs.

``homology`` reduces the boundary maps from the top dimension down and
builds each map only on the faces the map above has not *cleared*.  A unit
pivot of the map on (k+1)-faces sits in the column of a k-face sigma, and
its row, at pivot time, is an integer combination of boundaries: a k-cycle
with a +-1 at sigma and no entry at the columns pivoted before.  Applying
the k-th map to that cycle gives 0, so the row of sigma in the k-th map is
an integer combination of the rows of faces that are not earlier pivot
columns.  Taken from the last pivot back to the first, every pivot row is
an integer combination of the rows never pivoted on, so dropping them all
keeps the row lattice, and with it the rank and the elementary divisors.
Only unit pivots clear a row: a pivot of the dense step is not invertible
over Z.  Over GF(p) every pivot is a unit.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from math import gcd, isqrt
from types import MappingProxyType

from .complex_core import SimplicialComplex
from .errors import DimensionOutOfRange, InvalidSpec


class SparseIntMatrix:
    """Sparse integer matrix; no explicit zeros are stored.

    ``rows[r]`` maps the columns of row r to their entries, and
    ``col_rows[c]`` lists the rows whose entry in column c is non-zero,
    each once, in increasing order, so a row is found by bisection.  A
    list, not a set: an empty set alone costs 216 bytes.  A row is
    inserted only when its entry is new and removed when its entry
    vanishes.  A matrix handed to ``_eliminate`` with a row function may
    hold None for a row not built yet; elimination leaves each retired row
    as the shared, read-only ``_RETIRED``.
    """

    __slots__ = ("nrows", "ncols", "rows", "col_rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
        self.col_rows: list[list[int]] = [[] for _ in range(ncols)]

    def set(self, r: int, c: int, v: int) -> None:
        row = self.rows[r]
        if v:
            if c not in row:
                insort(self.col_rows[c], r)
            row[c] = v
        elif c in row:
            del row[c]
            rs = self.col_rows[c]
            del rs[bisect_left(rs, r)]

    def get(self, r: int, c: int) -> int:
        return self.rows[r].get(c, 0)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def copy(self) -> "SparseIntMatrix":
        M = SparseIntMatrix(self.nrows, self.ncols)
        M.rows = [dict(row) for row in self.rows]
        M.col_rows = [rs[:] for rs in self.col_rows]
        return M


@dataclass(frozen=True)
class SmithNormalForm:
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)


def boundary_matrix(K: SimplicialComplex, k: int, *, _cleared=()) -> SparseIntMatrix:
    """The k-th boundary operator: rows are k-faces, columns (k-1)-faces.

    Entry for (sigma, sigma minus its i-th smallest vertex) is (-1)**i.
    ``homology`` passes in ``_cleared`` the indexes of the k-faces whose
    rows it leaves out; the other rows keep their order.
    """
    if k < 1 or k > K.dim:
        raise DimensionOutOfRange(f"k={k} outside 1..{K.dim}")
    hi = K.faces(k)
    if _cleared:
        hi = [face for r, face in enumerate(hi) if r not in _cleared]
    lo_index = {f: i for i, f in enumerate(K.faces(k - 1))}
    M = SparseIntMatrix(len(hi), len(lo_index))
    col_rows = M.col_rows
    for r, face in enumerate(hi):
        row = M.rows[r]
        sign = 1
        for i in range(len(face)):
            c = lo_index[face[:i] + face[i + 1:]]
            row[c] = sign
            col_rows[c].append(r)
            sign = -sign
    return M


#: the row of every retired pivot: shared, empty and read-only
_RETIRED = MappingProxyType({})


def _eliminate(M: SparseIntMatrix, p: int = 0, row_of=None) -> list[int]:
    """Pivot each row of M once, in index order; returns the pivot columns.

    Over Z (``p == 0``) a row's units are its entries +1 and -1; over GF(p)
    (entries non-zero mod p, not necessarily reduced) every entry is a
    unit.  A row with a unit is pivoted on the unit whose column has the
    fewest rows: that column is cleared from the other rows, and the row
    itself is retired, since column operations that touch only it clear
    the rest.  A retired row becomes ``_RETIRED`` and no column lists it
    again.  Over Z a row without a unit at its turn is left for the dense
    step.

    With ``row_of``, a row of M that is None is built as ``row_of(r)`` the
    first time it is read: at its turn, or when a pivot column lists it.
    ``col_rows`` must list it already, so the pivots are those of the rows
    built up front, while only the rows between their first touch and
    their retirement are alive.
    """
    rows, col_rows = M.rows, M.col_rows
    pivots = []
    for r in range(M.nrows):
        prow = rows[r]
        if prow is None:
            prow = rows[r] = row_of(r)
        units = [c for c, v in prow.items() if p or v in (1, -1)]
        if not units:
            continue
        c = min(units, key=lambda k: len(col_rows[k]))
        inv = pow(prow[c], -1, p) if p else prow[c]  # +-1 is its own inverse
        for r2 in col_rows[c]:
            if r2 == r:
                continue
            row2 = rows[r2]
            if row2 is None:
                row2 = rows[r2] = row_of(r2)
            f = row2.pop(c) * inv
            for k, v in prow.items():
                if k == c:
                    continue
                old = row2.get(k)
                if old is None:
                    # f and v are non-zero (mod p), so their product is too
                    row2[k] = -f * v % p if p else -f * v
                    insort(col_rows[k], r2)
                    continue
                new = old - f * v
                if p:
                    new %= p
                if new:
                    row2[k] = new
                else:
                    del row2[k]
                    rs = col_rows[k]
                    del rs[bisect_left(rs, r2)]
        # each row before r is retired or left for the dense step, so r is
        # at or near the front of each of its sorted columns
        for k in prow:
            if k != c:
                col_rows[k].remove(r)
        col_rows[c].clear()
        rows[r] = _RETIRED
        pivots.append(c)
    return pivots


def _diagonal(mat: list[list[int]]) -> list[int]:
    """The non-zero diagonal of a Smith normal form of the dense ``mat``.

    A least-magnitude non-zero entry is the pivot; its column is reduced in
    the other rows, then its row in the other columns.  When both are
    clear, |pivot| is recorded and its row and column are dropped; else a
    remainder, smaller than the pivot, is the next pivot, so the loop ends.
    Since Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), one pairwise pass then
    puts the diagonal in divisibility order.
    """
    d = []
    while True:
        live = [(abs(v), i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v]
        if not live:
            break
        _, i, j = min(live)
        prow = mat[i]
        p = prow[j]
        for row in mat:
            if row is not prow and row[j]:
                q = row[j] // p
                for k, v in enumerate(prow):
                    row[k] -= q * v
        for k, v in enumerate(prow):
            if k != j and v:
                q = v // p
                for row in mat:
                    row[k] -= q * row[j]
        if any(prow[:j] + prow[j + 1:]) or sum(1 for row in mat if row[j]) > 1:
            continue
        d.append(abs(p))
        del mat[i]
        for row in mat:
            del row[j]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


def _residual(W: SparseIntMatrix) -> list[int]:
    """The diagonal of the rows ``_eliminate`` left over Z, made dense."""
    live = [row for row in W.rows if row]
    cols = sorted({c for row in live for c in row})
    return _diagonal([[row.get(c, 0) for c in cols] for row in live])


def _smith_in_place(M: SparseIntMatrix, row_of=None) -> SmithNormalForm:
    """Elementary divisors of M, reducing M itself: unit pivots, then the
    diagonal of the rest.  ``row_of`` builds the rows of M that are None,
    as in ``_eliminate``."""
    units = len(_eliminate(M, 0, row_of))
    return SmithNormalForm((1,) * units + tuple(_residual(M)))


def smith_normal_form(M: SparseIntMatrix) -> SmithNormalForm:
    """Elementary divisors of M.  M is left as it is: this reduces a copy,
    so it needs twice M's memory."""
    return _smith_in_place(M.copy())


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over the prime field GF(p) by sparse Gauss elimination."""
    W = SparseIntMatrix(M.nrows, M.ncols)
    for r, row in enumerate(M.rows):
        for c, v in row.items():
            W.set(r, c, v % p)
    return len(_eliminate(W, p))


#: GF(p) coefficients are limited to primes below this bound, so the
#: primality test by trial division stays instant on any input
MAX_PRIME = 2**31


def _prime(coefficients) -> int:
    """The prime p < MAX_PRIME named by ``coefficients``, or InvalidSpec."""
    p = 0
    if isinstance(coefficients, int) and not isinstance(coefficients, bool):
        p = coefficients
    elif isinstance(coefficients, str) and coefficients.isascii() and coefficients.isdigit():
        # more digits than MAX_PRIME has is out of range, and int() refuses
        # strings of thousands of digits
        p = int(coefficients) if len(coefficients) <= len(str(MAX_PRIME)) else 0
    if not 2 <= p < MAX_PRIME or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise InvalidSpec(
            f"coefficients must be Z, Q or a prime below 2^31, not {coefficients!r}"
        )
    return p


def _prime_powers(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append(q)
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass
class HomologyGroups:
    """Per-dimension Betti numbers and torsion (prime-power cyclic orders)."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    reduced: bool
    coefficients: str

    def group_text(self, k: int) -> str:
        parts = []
        b = self.betti[k]
        if b == 1:
            parts.append(self.coefficients)
        elif b > 1:
            parts.append(f"{self.coefficients}^{b}")
        parts.extend(f"Z/{t}" for t in self.torsion[k])
        return " + ".join(parts) if parts else "0"

    def is_spherical(self) -> bool:
        """True iff these are the homology groups, with these coefficients,
        of a sphere of the top dimension: the top group is free of rank 1
        and all others vanish (H_0 of rank 1 when not reduced)."""
        expected = [0] * len(self.betti)
        expected[-1] += 1
        if not self.reduced:
            expected[0] += 1
        return list(self.betti) == expected and not any(self.torsion)

    def report_text(self) -> str:
        return "\n".join(f"H_{k} = {self.group_text(k)}" for k in range(len(self.betti))) + "\n"

    def report_dict(self) -> dict:
        return {
            "coefficients": self.coefficients,
            "reduced": self.reduced,
            "betti": list(self.betti),
            "torsion": [list(t) for t in self.torsion],
        }


def homology(K: SimplicialComplex, coefficients="Z", reduced: bool = False) -> HomologyGroups:
    """Homology groups of K.

    ``coefficients`` is "Z" (integral, the default), "Q" (rational), or a
    prime p < 2^31 for GF(p), as an int (not a bool) or a string of the
    digits 0-9; anything else, a float included, raises InvalidSpec.  Over
    a field the torsion entries are empty and the Betti numbers are field
    dimensions.

    The maps are built, reduced in place and dropped one at a time, from
    the top down, so only one boundary matrix is alive at any moment.
    """
    d = K.dim
    f = K.f_vector()
    torsion: list[tuple[int, ...]] = [() for _ in range(d + 1)]
    if coefficients in ("Z", "Q"):
        p, label = 0, coefficients
    else:
        p = _prime(coefficients)
        label = f"GF({p})"
    ranks = {}
    cleared: set[int] = set()
    for k in range(d, 0, -1):
        # entries +-1 are non-zero mod every p, so GF(p) needs no reduction
        M = boundary_matrix(K, k, _cleared=cleared)
        cleared = set(_eliminate(M, p))
        rest = [] if p else _residual(M)
        del M  # so the next map is built with this one freed
        ranks[k] = len(cleared) + len(rest)
        if coefficients == "Z":
            torsion[k - 1] = tuple(sorted(q for t in rest if t > 1 for q in _prime_powers(t)))
    betti = [f[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(d + 1)]
    if reduced:
        betti[0] -= 1
    return HomologyGroups(tuple(betti), tuple(torsion), reduced, label)

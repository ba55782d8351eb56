"""Integer simplicial homology via elimination-based Smith normal form.

Boundary matrices are kept sparse (dict-of-dict rows plus column indexes).
One elimination serves Z and GF(p): it walks the rows once, in index
order, and pivots each row on its unit entry in the column with the fewest
rows.  Over Z the usually tiny residual of rows without a +-1 entry is
finished with the classical Euclidean Smith normal form over
arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .complex_core import SimplicialComplex
from .errors import DimensionOutOfRange, InvalidSpec


class SparseIntMatrix:
    """Sparse integer matrix; no explicit zeros are stored."""

    __slots__ = ("nrows", "ncols", "rows", "col_rows")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
        self.col_rows: list[set[int]] = [set() for _ in range(ncols)]

    def set(self, r: int, c: int, v: int) -> None:
        if v:
            self.rows[r][c] = v
            self.col_rows[c].add(r)
        elif c in self.rows[r]:
            del self.rows[r][c]
            self.col_rows[c].discard(r)

    def get(self, r: int, c: int) -> int:
        return self.rows[r].get(c, 0)

    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)

    def copy(self) -> "SparseIntMatrix":
        M = SparseIntMatrix(self.nrows, self.ncols)
        M.rows = [dict(row) for row in self.rows]
        M.col_rows = [set(s) for s in self.col_rows]
        return M

    def multiply(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.nrows, other.ncols)
        for r, row in enumerate(self.rows):
            acc: dict[int, int] = {}
            for k, v in row.items():
                for c, w in other.rows[k].items():
                    acc[c] = acc.get(c, 0) + v * w
            for c, v in acc.items():
                if v:
                    out.set(r, c, v)
        return out


@dataclass(frozen=True)
class SmithNormalForm:
    divisors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.divisors if d > 1)


def boundary_matrix(K: SimplicialComplex, k: int) -> SparseIntMatrix:
    """The k-th boundary operator: rows are k-faces, columns (k-1)-faces.

    Entry for (sigma, sigma minus its i-th smallest vertex) is (-1)**i.
    """
    if k < 1 or k > K.dim:
        raise DimensionOutOfRange(f"k={k} outside 1..{K.dim}")
    hi = K.faces(k)
    lo_index = {f: i for i, f in enumerate(K.faces(k - 1))}
    M = SparseIntMatrix(len(hi), len(lo_index))
    for r, face in enumerate(hi):
        sign = 1
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            M.set(r, lo_index[sub], sign)
            sign = -sign
    return M


def _eliminate(M: SparseIntMatrix, p: int = 0) -> int:
    """Pivot each row of M once, in index order; returns the pivot count.

    Over Z (``p == 0``) a row's units are its entries +1 and -1; over GF(p)
    (entries already reduced mod p) every entry is a unit.  A row with a
    unit is pivoted on the unit whose column has the fewest rows: that
    column is cleared from the other rows, and the row itself is retired,
    since column operations that touch only it clear the rest.  Over Z a
    row without a unit at its turn is left for the dense step.
    """
    rows, col_rows = M.rows, M.col_rows
    pivots = 0
    for r, prow in enumerate(rows):
        units = [c for c, v in prow.items() if p or v in (1, -1)]
        if not units:
            continue
        c = min(units, key=lambda k: len(col_rows[k]))
        inv = pow(prow[c], -1, p) if p else prow[c]  # +-1 is its own inverse
        for r2 in col_rows[c]:
            if r2 == r:
                continue
            row2 = rows[r2]
            f = row2.pop(c) * inv
            for k, v in prow.items():
                if k == c:
                    continue
                new = row2.get(k, 0) - f * v
                if p:
                    new %= p
                if new:
                    row2[k] = new
                    col_rows[k].add(r2)
                elif k in row2:
                    del row2[k]
                    col_rows[k].discard(r2)
        for k in prow:
            col_rows[k].discard(r)
        col_rows[c].clear()
        rows[r] = {}
        pivots += 1
    return pivots


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Classical Euclidean Smith normal form of a small dense matrix."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    divisors = []
    t = 0
    while True:
        # locate a nonzero entry of minimal magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = mat[i][j]
                if v and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[t], mat[bi] = mat[bi], mat[t]
        for row in mat:
            row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if mat[i][t]:
                    q = mat[i][t] // mat[t][t]
                    for j in range(t, n):
                        mat[i][j] -= q * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if mat[t][j]:
                    q = mat[t][j] // mat[t][t]
                    for i in range(t, m):
                        mat[i][j] -= q * mat[i][t]
                    if mat[t][j]:
                        for i in range(t, m):
                            mat[i][t], mat[i][j] = mat[i][j], mat[i][t]
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if mat[i][j] % mat[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            for j in range(t, n):
                mat[t][j] += mat[culprit][j]
        divisors.append(abs(mat[t][t]))
        t += 1
        if t == m or t == n:
            # the trailing block may still hold nonzeros only if t hit a
            # border; by construction it is empty then
            break
    return divisors


def smith_normal_form(M: SparseIntMatrix) -> SmithNormalForm:
    """Elementary divisors of M (unit pivots, then Euclidean SNF)."""
    W = M.copy()
    units = _eliminate(W)
    # densify the (typically tiny) residual
    live_rows = [r for r, row in enumerate(W.rows) if row]
    live_cols = sorted({c for r in live_rows for c in W.rows[r]})
    col_map = {c: j for j, c in enumerate(live_cols)}
    dense = [[0] * len(live_cols) for _ in live_rows]
    for i, r in enumerate(live_rows):
        for c, v in W.rows[r].items():
            dense[i][col_map[c]] = v
    residual = _dense_snf(dense) if dense else []
    # unit pivots divide everything; the Euclidean part is already a chain
    divisors = [1] * (units + sum(1 for d in residual if d == 1))
    divisors += [d for d in residual if d > 1]
    return SmithNormalForm(tuple(divisors))


def rank_mod_p(M: SparseIntMatrix, p: int) -> int:
    """Rank of M over the prime field GF(p) by sparse Gauss elimination."""
    W = SparseIntMatrix(M.nrows, M.ncols)
    for r, row in enumerate(M.rows):
        for c, v in row.items():
            W.set(r, c, v % p)
    return _eliminate(W, p)


#: GF(p) coefficients are limited to primes below this bound, so the
#: primality test by trial division stays instant on any input
MAX_PRIME = 2**31


def _prime(coefficients) -> int:
    """The prime p < MAX_PRIME named by ``coefficients``, or InvalidSpec."""
    try:
        p = int(coefficients)
    except (TypeError, ValueError):
        p = 0
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
    prime p < 2^31 for GF(p), as an int or a decimal string; anything else
    raises InvalidSpec.  Over a field the torsion entries are empty and the Betti
    numbers are field dimensions.
    """
    d = K.dim
    f = K.f_vector()
    torsion: list[tuple[int, ...]] = [() for _ in range(d + 1)]
    if coefficients in ("Z", "Q"):
        snfs = {k: smith_normal_form(boundary_matrix(K, k)) for k in range(1, d + 1)}
        ranks = {k: snf.rank for k, snf in snfs.items()}
        label = coefficients
        if coefficients == "Z":
            for k in range(d):
                torsion[k] = tuple(sorted(q for t in snfs[k + 1].torsion() for q in _prime_powers(t)))
    else:
        p = _prime(coefficients)
        ranks = {k: rank_mod_p(boundary_matrix(K, k), p) for k in range(1, d + 1)}
        label = f"GF({p})"
    betti = [f[k] - ranks.get(k, 0) - ranks.get(k + 1, 0) for k in range(d + 1)]
    if reduced:
        betti[0] -= 1
    return HomologyGroups(tuple(betti), tuple(torsion), reduced, label)

"""Randomized discrete Morse search via destructive level-wise collapsing.

Three free-face selection strategies are provided: random-random (uniform
over the current free faces), and random-lex-first / random-lex-last (one
random vertex relabeling per run, then deterministic lexicographic picks).
Runs never mutate the shared Hasse diagram; each run keeps private alive
flags and coface counts.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from enum import Enum

from .complex_core import DEFAULT_CAPACITY, Face, HasseDiagram, SimplicialComplex, build_hasse
from .errors import InconsistentMatching
from .rng import Rng


class Strategy(Enum):
    RANDOM_RANDOM = "random-random"
    RANDOM_LEX_FIRST = "random-lex-first"
    RANDOM_LEX_LAST = "random-lex-last"


@dataclass
class MorseResult:
    """Outcome of one randomized collapse run."""

    vector: tuple[int, ...]
    matching: list[tuple[Face, Face]]
    critical: list[Face]
    seed: int
    strategy: Strategy


def is_spherical(vector: tuple[int, ...]) -> bool:
    """True iff the vector reads (1,0,...,0,1); for dimension 0, (2)."""
    if len(vector) == 1:
        return vector == (2,)
    return vector[0] == 1 and vector[-1] == 1 and not any(vector[1:-1])


def is_collapsible_witness(vector: tuple[int, ...]) -> bool:
    """True iff the vector reads (1,0,...,0)."""
    return vector[0] == 1 and not any(vector[1:])


def random_discrete_morse(
    K: SimplicialComplex,
    strategy: Strategy,
    seed: int,
    hasse: HasseDiagram | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> MorseResult:
    """One randomized collapse run; deterministic given (K, strategy, seed).

    ``hasse`` may be a prebuilt diagram of K to amortize construction over
    many runs.
    """
    H = hasse if hasse is not None else build_hasse(K, capacity)
    rng = Rng(seed)
    n = H.n_nodes()
    faces = H.faces
    level_start = H.level_start
    up_off, up_idx = H.up_off, H.up_idx
    down_off, down_idx = H.down_off, H.down_idx

    alive = bytearray(b"\x01") * n
    up_count = H.up_degrees()
    matching_nodes: list[tuple[int, int]] = []
    critical_nodes: list[int] = []

    lex = strategy is not Strategy.RANDOM_RANDOM
    lex_last = strategy is Strategy.RANDOM_LEX_LAST
    rank = None
    level_orders = None
    if lex:
        # one uniform relabeling per run; all picks are then lexicographic
        verts = [f[0] for f in faces[level_start[0]:level_start[1]]]
        perm = rng.permutation(len(verts))
        relabel = {v: perm[i] for i, v in enumerate(verts)}
        rank = [0] * n
        level_orders = []
        for k in range(H.dim + 1):
            nodes = list(range(level_start[k], level_start[k + 1]))
            nodes.sort(key=lambda nd: tuple(sorted(relabel[v] for v in faces[nd])))
            for r, nd in enumerate(nodes):
                rank[nd] = r
            level_orders.append(nodes)

    for d in range(H.dim, 0, -1):
        lo_start, lo_end = level_start[d - 1], level_start[d]
        hi_start, hi_end = level_start[d], level_start[d + 1]

        if lex:
            top_order = level_orders[d]
            top_ptr = len(top_order) - 1 if lex_last else 0
            free_heap: list = []
            if lex_last:
                for nd in range(lo_start, lo_end):
                    if alive[nd] and up_count[nd] == 1:
                        heapq.heappush(free_heap, (-rank[nd], nd))
            else:
                for nd in range(lo_start, lo_end):
                    if alive[nd] and up_count[nd] == 1:
                        heapq.heappush(free_heap, (rank[nd], nd))
        else:
            top = [nd for nd in range(hi_start, hi_end) if alive[nd]]
            top_pos = [-1] * (hi_end - hi_start)
            for i, nd in enumerate(top):
                top_pos[nd - hi_start] = i
            free = [nd for nd in range(lo_start, lo_end) if alive[nd] and up_count[nd] == 1]
            free_pos = [-1] * (lo_end - lo_start)
            for i, nd in enumerate(free):
                free_pos[nd - lo_start] = i

        while True:
            sigma = -1
            if lex:
                while free_heap:
                    _, cand = free_heap[0]
                    if alive[cand] and up_count[cand] == 1:
                        sigma = cand
                        heapq.heappop(free_heap)
                        break
                    heapq.heappop(free_heap)
            else:
                if free:
                    sigma = free[rng.randbelow(len(free))]

            if sigma >= 0:
                # elementary collapse of (sigma, tau)
                tau = -1
                for u in up_idx[up_off[sigma]:up_off[sigma + 1]]:
                    if alive[u]:
                        tau = u
                        break
                alive[sigma] = 0
                if not lex:
                    i = free_pos[sigma - lo_start]
                    last = free[-1]
                    free[i] = last
                    free_pos[last - lo_start] = i
                    free.pop()
                    free_pos[sigma - lo_start] = -1
                for y in down_idx[down_off[sigma]:down_off[sigma + 1]]:
                    if alive[y]:
                        up_count[y] -= 1
                matching_nodes.append((sigma, tau))
            else:
                # no free face: declare a critical face of the top dimension
                tau = -1
                if lex:
                    if lex_last:
                        while top_ptr >= 0 and not alive[top_order[top_ptr]]:
                            top_ptr -= 1
                        if top_ptr >= 0:
                            tau = top_order[top_ptr]
                            top_ptr -= 1
                    else:
                        while top_ptr < len(top_order) and not alive[top_order[top_ptr]]:
                            top_ptr += 1
                        if top_ptr < len(top_order):
                            tau = top_order[top_ptr]
                            top_ptr += 1
                else:
                    if top:
                        tau = top[rng.randbelow(len(top))]
                if tau < 0:
                    break  # level exhausted; the working dimension drops
                critical_nodes.append(tau)

            alive[tau] = 0
            if not lex:
                i = top_pos[tau - hi_start]
                last = top[-1]
                top[i] = last
                top_pos[last - hi_start] = i
                top.pop()
                top_pos[tau - hi_start] = -1
            if lex:
                for y in down_idx[down_off[tau]:down_off[tau + 1]]:
                    if alive[y]:
                        c = up_count[y] = up_count[y] - 1
                        if c == 1:
                            heapq.heappush(free_heap, (-rank[y] if lex_last else rank[y], y))
            else:
                for y in down_idx[down_off[tau]:down_off[tau + 1]]:
                    if alive[y]:
                        c = up_count[y] = up_count[y] - 1
                        if c == 1:
                            free_pos[y - lo_start] = len(free)
                            free.append(y)
                        elif c == 0:
                            i = free_pos[y - lo_start]
                            if i >= 0:
                                last = free[-1]
                                free[i] = last
                                free_pos[last - lo_start] = i
                                free.pop()
                                free_pos[y - lo_start] = -1

    for nd in range(level_start[0], level_start[1]):
        if alive[nd]:
            critical_nodes.append(nd)

    vector = [0] * (H.dim + 1)
    for nd in critical_nodes:
        vector[len(faces[nd]) - 1] += 1
    return MorseResult(
        vector=tuple(vector),
        matching=[(faces[a], faces[b]) for a, b in matching_nodes],
        critical=[faces[nd] for nd in critical_nodes],
        seed=seed,
        strategy=strategy,
    )


def verify_acyclic_matching(H: HasseDiagram, result: MorseResult) -> bool:
    """Check that reversing the matched arcs leaves the Hasse diagram acyclic.

    Cycles of the modified digraph alternate between two consecutive
    levels, so each level pair is checked independently by Kahn's
    algorithm.
    """
    matched_up: dict[int, int] = {}
    for low_face, high_face in result.matching:
        lo = H.locate(low_face)
        hi = H.locate(high_face)
        if lo is None or hi is None or lo not in H.down_neighbors(hi):
            raise InconsistentMatching(f"pair {low_face} < {high_face} is not an incidence")
        if lo in matched_up:
            raise InconsistentMatching(f"face {low_face} matched twice")
        matched_up[lo] = hi

    for k in range(H.dim):
        lo_rng = H.level_range(k)
        hi_rng = H.level_range(k + 1)
        indeg = {nd: 0 for nd in lo_rng}
        indeg.update((nd, 0) for nd in hi_rng)
        out: dict[int, list[int]] = {nd: [] for nd in indeg}
        for tau in hi_rng:
            for sigma in H.down_neighbors(tau):
                if matched_up.get(sigma) == tau:
                    out[sigma].append(tau)
                    indeg[tau] += 1
                else:
                    out[tau].append(sigma)
                    indeg[sigma] += 1
        queue = [nd for nd, deg in indeg.items() if deg == 0]
        seen = 0
        while queue:
            nd = queue.pop()
            seen += 1
            for nxt in out[nd]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if seen != len(indeg):
            return False
    return True


@dataclass
class SpectrumResult:
    """Aggregated discrete Morse vectors over many seeded runs."""

    counts: dict[tuple[int, ...], int]
    strategy: Strategy
    seed: int
    rounds: int
    elapsed: float = 0.0

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def seconds_per_run(self) -> float:
        return self.elapsed / self.rounds if self.rounds else 0.0


def morse_spectrum(
    K: SimplicialComplex,
    strategy: Strategy,
    rounds: int,
    seed: int,
    hasse: HasseDiagram | None = None,
    capacity: int = DEFAULT_CAPACITY,
) -> SpectrumResult:
    """Run seeds seed, seed+1, ... and aggregate identical Morse vectors."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    H = hasse if hasse is not None else build_hasse(K, capacity)
    chi = K.euler_characteristic()
    counts: dict[tuple[int, ...], int] = {}
    t0 = time.perf_counter()
    for i in range(rounds):
        res = random_discrete_morse(K, strategy, seed + i, hasse=H)
        v = res.vector
        if sum((-1) ** k * c for k, c in enumerate(v)) != chi:
            raise AssertionError(f"Morse-Euler identity violated: {v} vs chi={chi}")
        counts[v] = counts.get(v, 0) + 1
    elapsed = time.perf_counter() - t0
    return SpectrumResult(counts=counts, strategy=strategy, seed=seed, rounds=rounds, elapsed=elapsed)


def format_vector(v: tuple[int, ...]) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def spectrum_tsv(result: SpectrumResult, include_runtime: bool = True) -> str:
    """TSV serialization: vector, count rows plus a provenance comment."""
    lines = [f"{format_vector(v)}\t{c}" for v, c in result.sorted_items()]
    comment = (
        f"# strategy={result.strategy.value} seed={result.seed} rounds={result.rounds}"
    )
    if include_runtime:
        comment += f" seconds_per_run={result.seconds_per_run():.6f}"
    lines.append(comment)
    return "\n".join(lines) + "\n"


def matching_certificate_text(result: MorseResult) -> str:
    """Replayable matching certificate: matched pairs then critical faces."""
    lines = []
    for low, high in result.matching:
        lines.append(" ".join(map(str, low)) + "\t" + " ".join(map(str, high)))
    lines.append("critical:")
    for f in result.critical:
        lines.append(" ".join(map(str, f)))
    return "\n".join(lines) + "\n"

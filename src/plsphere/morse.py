"""Randomized discrete Morse search via destructive level-wise collapsing.

Three free-face selection strategies are provided: random-random (uniform
over the current free faces), and random-lex-first / random-lex-last (one
random vertex relabeling per run, then deterministic lexicographic picks).
Runs never mutate the shared Hasse diagram; each run keeps private alive
flags and coface counts.

One run serves two callers.  ``random_discrete_morse`` keeps the matched
pairs and critical faces of a run as a ``MorseResult``; ``morse_vector``
keeps only its discrete Morse vector and builds no matching at all.

A run depends only on (K, strategy, seed), so ``morse_spectrum`` splits its
seeds into contiguous blocks, one per CPU, up to ``MAX_WORKERS``.  The
parent has K build its Hasse diagram, then forks a child per block after
the first, which inherits K and the diagram without pickling.  The parent
runs the first block itself.  Each block counts the vectors that
``morse_vector`` returns for its seeds, distinct ones in order of first
appearance, and each child sends back that count table, marshalled, over a
pipe.  The parent adds the tables in seed order, so the spectrum is the
same for any number of workers.  It forks nothing where fork is missing or
unsafe: on macOS, and while the calling process runs more than one thread.
"""

from __future__ import annotations

import heapq
import marshal
import os
import sys
import time
from dataclasses import dataclass
from enum import Enum

from .complex_core import Face, HasseDiagram, SimplicialComplex
from .errors import InconsistentMatching, PLSphereError
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


def random_discrete_morse(K: SimplicialComplex, strategy: Strategy, seed: int) -> MorseResult:
    """One randomized collapse run; deterministic given (K, strategy, seed).
    The Hasse diagram is K's own, built on the first run."""
    matching_nodes: list[tuple[int, int]] = []
    vector, critical_nodes = _run(K, strategy, seed, matching_nodes.append)
    faces = K.hasse().faces
    return MorseResult(
        vector=vector,
        matching=[(faces[a], faces[b]) for a, b in matching_nodes],
        critical=[faces[nd] for nd in critical_nodes],
        seed=seed,
        strategy=strategy,
    )


def morse_vector(K: SimplicialComplex, strategy: Strategy, seed: int) -> tuple[int, ...]:
    """The vector of ``random_discrete_morse(K, strategy, seed)``, from the
    same run, but with no matching kept: no pair is handed on, so no pair
    tuple is built."""
    return _run(K, strategy, seed, None)[0]


def _run(K, strategy, seed, pair) -> tuple[tuple[int, ...], list[int]]:
    """The collapse run of (K, strategy, seed): hand each matched node pair
    (sigma, tau) to ``pair`` in collapse order, unless ``pair`` is None, and
    return the Morse vector and the critical nodes."""
    H = K.hasse()
    rng = Rng(seed)
    alive = bytearray(b"\x01") * H.n_nodes()
    up_count = list(map(len, H.up))
    critical: list[int] = []
    if strategy is Strategy.RANDOM_RANDOM:
        _collapse_random(H, rng, alive, up_count, pair, critical)
    else:
        _collapse_lex(H, rng, strategy is Strategy.RANDOM_LEX_LAST, alive, up_count, pair, critical)
    critical.extend(nd for nd in H.level_range(0) if alive[nd])

    faces = H.faces
    vector = [0] * (H.dim + 1)
    for nd in critical:
        vector[len(faces[nd]) - 1] += 1
    return tuple(vector), critical


def _collapse_random(H, rng, alive, up_count, pair, critical) -> None:
    """Levels dim..1: collapse a uniform free face, else remove a uniform
    top face as critical.  ``top`` and ``free`` are swap-remove lists; they
    hold faces of different dimensions, so one position list serves both."""
    up, down = H.up, H.down
    randbelow = rng.randbelow
    pos = [0] * H.n_nodes()
    for d in range(H.dim, 0, -1):
        top = [nd for nd in H.level_range(d) if alive[nd]]
        free = [nd for nd in H.level_range(d - 1) if alive[nd] and up_count[nd] == 1]
        for lst in (top, free):
            for i, nd in enumerate(lst):
                pos[nd] = i
        while True:
            if free:
                # elementary collapse of (sigma, tau), tau the one live coface
                sigma = free[randbelow(len(free))]
                for tau in up[sigma]:
                    if alive[tau]:
                        break
                alive[sigma] = 0
                last = free.pop()
                if last != sigma:
                    free[pos[sigma]] = last
                    pos[last] = pos[sigma]
                for y in down[sigma]:  # dimension d - 2: all still alive
                    up_count[y] -= 1
                if pair is not None:
                    pair((sigma, tau))
            elif top:
                # no free face: declare a critical face of the top dimension
                tau = top[randbelow(len(top))]
                critical.append(tau)
            else:
                break  # level exhausted; the working dimension drops
            alive[tau] = 0
            last = top.pop()
            if last != tau:
                top[pos[tau]] = last
                pos[last] = pos[tau]
            for y in down[tau]:
                if alive[y]:
                    c = up_count[y] = up_count[y] - 1
                    if c == 1:
                        pos[y] = len(free)
                        free.append(y)
                    elif c == 0:
                        # y was free: a live face with one coface always is
                        last = free.pop()
                        if last != y:
                            free[pos[y]] = last
                            pos[last] = pos[y]


def _lex_orders(H, rng) -> tuple[list[int], list[list[int]]]:
    """One uniform vertex relabeling: each node's rank within its level in
    the lex order of the relabeled faces, and each level's nodes in that
    order.

    A vertex's rank is its new label.  A k-face ranks by the integer
    ``m * f_{k-1} + rank(g)``, with m its least new label and g the face
    without that vertex: sorted relabeled tuples compare first by m, then
    by the rest, which is g.  The faces without the last and without the
    first vertex (``down`` entries 0 and k) between them hold every vertex,
    so m and its position follow from theirs.
    """
    down, level_start = H.down, H.level_start
    n = H.n_nodes()
    rank = rng.permutation(level_start[1])
    least = rank + [0] * (n - len(rank))  # least new label of each face
    at = [0] * n  # position of that vertex in the face
    rank.extend([0] * (n - len(rank)))
    orders = [sorted(H.level_range(0), key=rank.__getitem__)]
    for k in range(1, H.dim + 1):
        below = level_start[k] - level_start[k - 1]
        level = H.level_range(k)
        for nd in level:
            sub = down[nd]
            head, tail = sub[0], sub[k]
            if least[head] <= least[tail]:
                m = least[nd] = least[head]
                i = at[nd] = at[head]
            else:
                m = least[nd] = least[tail]
                i = at[nd] = k
            rank[nd] = m * below + rank[sub[k - i]]
        order = sorted(level, key=rank.__getitem__)
        for r, nd in enumerate(order):
            rank[nd] = r
        orders.append(order)
    return rank, orders


def _collapse_lex(H, rng, lex_last, alive, up_count, pair, critical) -> None:
    """Levels dim..1: collapse the lex-least (lex-last: greatest) free face
    under one random relabeling, else remove the lex-least (greatest) live
    top face as critical.  The heap holds ranks, negated for lex-last."""
    up, down = H.up, H.down
    rank, orders = _lex_orders(H, rng)
    sign = -1 if lex_last else 1
    for d in range(H.dim, 0, -1):
        low_order = orders[d - 1]
        tops = iter(reversed(orders[d]) if lex_last else orders[d])
        heap = [sign * rank[nd] for nd in H.level_range(d - 1) if alive[nd] and up_count[nd] == 1]
        heapq.heapify(heap)  # ranks are distinct, so pops follow the set
        while True:
            sigma = -1
            while heap:
                nd = low_order[sign * heapq.heappop(heap)]
                if alive[nd] and up_count[nd] == 1:
                    sigma = nd
                    break
            if sigma >= 0:
                for tau in up[sigma]:
                    if alive[tau]:
                        break
                alive[sigma] = 0
                for y in down[sigma]:  # dimension d - 2: all still alive
                    up_count[y] -= 1
                if pair is not None:
                    pair((sigma, tau))
            else:
                for tau in tops:
                    if alive[tau]:
                        break
                else:
                    break  # level exhausted; the working dimension drops
                critical.append(tau)
            alive[tau] = 0
            for y in down[tau]:
                if alive[y]:
                    c = up_count[y] = up_count[y] - 1
                    if c == 1:
                        heapq.heappush(heap, sign * rank[y])


def verify_acyclic_matching(H: HasseDiagram, result: MorseResult) -> bool:
    """Check that reversing the matched arcs leaves the Hasse diagram acyclic.

    Cycles of the modified digraph alternate between two consecutive
    levels, so each level pair is checked independently by Kahn's
    algorithm.
    """
    matched_up: dict[int, int] = {}
    for low_face, high_face in result.matching:
        lo = H.node(tuple(sorted(low_face)))
        hi = H.node(tuple(sorted(high_face)))
        if lo is None or hi is None or lo not in H.down[hi]:
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
            for sigma in H.down[tau]:
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
    K: SimplicialComplex, strategy: Strategy, rounds: int, seed: int
) -> SpectrumResult:
    """Run seeds seed, seed+1, ... and aggregate identical Morse vectors.
    Each run is ``morse_vector``'s: the spectrum builds no matchings.

    The seeds are split into ``w = _worker_count(rounds)`` contiguous
    blocks; block i holds seeds ``seed + rounds*i//w`` to ``seed +
    rounds*(i+1)//w - 1``.  The parent runs block 0 and forks one child per
    other block.  The blocks' count tables are added in seed order, so
    ``counts`` and its order (of first appearance) do not depend on ``w``;
    every distinct vector is checked against the Morse-Euler identity.
    ``elapsed`` is wall time.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    K.hasse()  # built once here, inherited by every child
    chi = K.euler_characteristic()
    w = _worker_count(rounds)
    cut = [seed + rounds * i // w for i in range(w + 1)]
    t0 = time.perf_counter()
    children: list[tuple[int, int]] = []  # (pid, read end), blocks 1..w-1
    try:
        for i in range(1, w):
            children.append(_fork_block(K, strategy, cut[i], cut[i + 1]))
        blocks = [_run_block(K, strategy, cut[0], cut[1])]
        for _, fd in children:
            blocks.append(_read_block(fd))
    except BaseException:
        # stop the children before reaping them; nothing reads their pipes
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, fd in children:
            os.close(fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for i, status in enumerate(statuses, 1):
        if status:
            raise PLSphereError(
                f"the worker for seeds {cut[i]}..{cut[i + 1] - 1} failed "
                f"(exit status {os.waitstatus_to_exitcode(status)})"
            )
    counts: dict[tuple[int, ...], int] = {}
    for block in blocks:
        for v, n in block.items():
            counts[v] = counts.get(v, 0) + n
    for v in counts:
        if sum((-1) ** k * c for k, c in enumerate(v)) != chi:
            raise AssertionError(f"Morse-Euler identity violated: {v} vs chi={chi}")
    elapsed = time.perf_counter() - t0
    return SpectrumResult(counts=counts, strategy=strategy, seed=seed, rounds=rounds, elapsed=elapsed)


#: Each child touches copy-on-write pages of K and the Hasse diagram until
#: it holds about as much memory as the parent, so one spectrum needs up to
#: this many times the memory of a serial run, however many CPUs there are.
MAX_WORKERS = 4


def _worker_count(rounds: int) -> int:
    """min(rounds, MAX_WORKERS, CPUs in the affinity mask), or 1 where a
    fork without exec is unsafe: no ``os.fork``, macOS, or a caller that
    runs other threads (one of them may hold a lock the child then waits
    on forever)."""
    if not hasattr(os, "fork") or sys.platform == "darwin":
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return min(rounds, MAX_WORKERS, _available_cpus())


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _run_block(K, strategy, first, stop) -> dict[tuple[int, ...], int]:
    """The count of each ``morse_vector`` of seeds first..stop-1, in order
    of first appearance.  ``morse_vector`` is looked up as a module
    attribute, so a wrapped or patched one is the one called."""
    counts: dict[tuple[int, ...], int] = {}
    for s in range(first, stop):
        v = morse_vector(K, strategy, s)
        counts[v] = counts.get(v, 0) + 1
    return counts


def _fork_block(K, strategy, first, stop) -> tuple[int, int]:
    """Fork a child that runs seeds first..stop-1 and writes their count
    table, marshalled, to a pipe; return its pid and the read end.  The
    child exits non-zero, having written nothing, if its block raises."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            counts = _run_block(K, strategy, first, stop)
            with open(w, "wb") as out:
                out.write(marshal.dumps(counts))
            status = 0
        except Exception:
            sys.excepthook(*sys.exc_info())
            sys.stderr.flush()
        finally:
            os._exit(status)  # no atexit handlers, no flushing of inherited buffers
    os.close(w)
    return pid, r


def _read_block(fd: int) -> dict[tuple[int, ...], int]:
    """The count table a child wrote, or an empty one if it wrote nothing."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return marshal.loads(b"".join(chunks)) if chunks else {}


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

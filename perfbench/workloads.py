"""The workloads of the plsphere benchmark.

A workload builds its fixed inputs from the workload seed in ``setup`` and
lists the ops that make up one pass of its timed work.  ``run`` executes one
op and returns the library's own result.  ``counters`` reduces a result to
plain values that must repeat exactly for the same seed (the determinism
check), and ``check`` returns None or a message saying why the result is
wrong.  Neither is called inside the timed phase.

Every library call goes through a module attribute (``morse.morse_spectrum``
and so on), so the wrappers the traced run installs are the ones called.
Each op builds a fresh ``SimplicialComplex``: the complex caches its face
lists, and a pass must not inherit that work from the one before it.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import tempfile
from dataclasses import dataclass

from plsphere import cli, flips, generators, io, morse, pi1, recognizer
from plsphere.complex_core import SimplicialComplex

# ``plsphere.homology`` as an attribute of the package is the function, not
# the module; the module is what the traced run patches.
homology = importlib.import_module("plsphere.homology")

#: the pi1 effort budget of the ``pi1`` and ``recognize`` commands
PI1_BUDGET = 10**6


def derive(seed: int, tag: str, i: int = 0) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{tag}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _facets(spec: str) -> tuple:
    return cli.resolve_complex(spec).facets


@dataclass
class Op:
    """One call of the timed work; ``label`` names its input in reports."""

    label: str
    kind: str
    args: tuple
    expect: object = None


@dataclass
class Inputs:
    ops: list[Op]
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


# -- spectrum -----------------------------------------------------------------


class Spectrum:
    """``morse_spectrum`` as the ``spectrum`` command runs it: no prebuilt
    Hasse diagram, so each call pays for its own build."""

    name = "spectrum"

    def setup(self, seed: int, smoke: bool, outdir: str) -> Inputs:
        if smoke:
            ball, ball_rounds, sphere, sphere_rounds = "simplex:6", 4, "sd:1:bd_simplex:4", 4
        else:
            ball, ball_rounds, sphere, sphere_rounds = "simplex:13", 14, "sd:2:bd_simplex:4", 12
        d_ball = int(ball.split(":")[1])
        return Inputs(
            [
                Op(
                    "ball",
                    "spectrum",
                    (_facets(ball), morse.Strategy.RANDOM_RANDOM, ball_rounds, derive(seed, "ball")),
                    (1,) + (0,) * d_ball,
                ),
                Op(
                    "sphere",
                    "spectrum",
                    (_facets(sphere), morse.Strategy.RANDOM_LEX_LAST, sphere_rounds, derive(seed, "sphere")),
                    (1, 0, 0, 1),
                ),
            ]
        )

    def run(self, op: Op):
        facets, strategy, rounds, seed = op.args
        return morse.morse_spectrum(SimplicialComplex(facets), strategy, rounds, seed)

    def counters(self, op: Op, res) -> tuple:
        return (res.rounds, tuple(res.sorted_items()))

    def check(self, op: Op, res) -> str | None:
        betti = op.expect
        chi = sum((-1) ** k * b for k, b in enumerate(betti))
        if sum(res.counts.values()) != res.rounds:
            return f"{sum(res.counts.values())} vectors for {res.rounds} runs"
        for v in res.counts:
            if len(v) != len(betti):
                return f"vector {v} has the wrong length"
            if sum((-1) ** k * c for k, c in enumerate(v)) != chi:
                return f"Morse-Euler identity fails for {v}"
            if any(c < b for c, b in zip(v, betti)):
                return f"weak Morse inequality fails for {v} against {betti}"
        return None


# -- recognize ----------------------------------------------------------------


class Recognize:
    """``io.read_complex`` plus ``recognize`` with the default config, on
    facet files written during set-up."""

    name = "recognize"

    def setup(self, seed: int, smoke: bool, outdir: str) -> Inputs:
        if smoke:
            cases = [
                ("sd1_bd4", cli.resolve_complex("sd:1:bd_simplex:4"), "YES"),
                ("perturbed", generators.perturbed_sphere(3, 10, 100, 0, derive(seed, "perturbed")), "YES"),
                ("susp_rp2", generators.suspension(generators.rp2_6()), "NO"),
            ]
        else:
            cases = [
                ("sd1_bd5", cli.resolve_complex("sd:1:bd_simplex:5"), "YES"),
                ("susp_sd1_bd4", generators.suspension(cli.resolve_complex("sd:1:bd_simplex:4")), "YES"),
                ("perturbed", generators.perturbed_sphere(3, 40, 400, 0, derive(seed, "perturbed")), "YES"),
                ("susp_rp2", generators.suspension(generators.rp2_6()), "NO"),
            ]
        workdir = tempfile.mkdtemp(prefix="recognize-", dir=outdir)
        ops = []
        for i, (label, K, answer) in enumerate(cases):
            path = os.path.join(workdir, f"{label}.txt")
            io.write_complex(K, path)
            cfg_seed = derive(seed, "recognize", i)
            ops.append(Op(label, "recognize", (path, cfg_seed), answer))
        return Inputs(ops, workdir)

    def run(self, op: Op):
        path, cfg_seed = op.args
        K = io.read_complex(path)
        return recognizer.recognize(K, recognizer.RecognitionConfig(seed=cfg_seed))

    def counters(self, op: Op, res) -> tuple:
        cert = res.certificate
        vector = getattr(cert.payload, "vector", None) if cert is not None else None
        return (res.answer.value, cert.kind if cert else None, vector, tuple(res.log))

    def check(self, op: Op, res) -> str | None:
        if res.answer.value != op.expect:
            return f"answer {res.answer.value}, expected {op.expect}"
        kind = res.certificate.kind
        if op.expect == "NO" and kind != "link_failure":
            return f"NO certified by {kind}, expected a link witness"
        if kind == "spherical_morse" and not morse.is_spherical(res.certificate.payload.vector):
            return f"certificate vector {res.certificate.payload.vector} is not spherical"
        return None


# -- flips --------------------------------------------------------------------


class Flips:
    """Random f-increasing moves (``perturbed_sphere``) then f-decreasing
    annealing (``bistellar_simplify``) back to the boundary of the 4-simplex."""

    name = "flips"
    MAX_ROUNDS = 10**5

    def setup(self, seed: int, smoke: bool, outdir: str) -> Inputs:
        instances, add_vertices, one_moves = (2, 8, 80) if smoke else (12, 40, 200)
        ops = [
            Op(
                f"instance{i}",
                "flips",
                (add_vertices, one_moves, derive(seed, "perturb", i), derive(seed, "simplify", i)),
            )
            for i in range(instances)
        ]
        return Inputs(ops)

    def run(self, op: Op):
        add_vertices, one_moves, perturb_seed, simplify_seed = op.args
        K = generators.perturbed_sphere(3, add_vertices, one_moves, 0, perturb_seed)
        return K, flips.bistellar_simplify(K, seed=simplify_seed, max_rounds=self.MAX_ROUNDS)

    def counters(self, op: Op, res) -> tuple:
        K, r = res
        return (K.facets, r.rounds, len(r.trajectory), r.best_f, r.reached_simplex_boundary)

    def check(self, op: Op, res) -> str | None:
        K, r = res
        if not r.reached_simplex_boundary or r.complex.f_vector() != (5, 10, 10, 5):
            return f"stopped at f-vector {r.best_f} after {r.rounds} rounds"
        if not r.replayable:
            return "trajectory buffer overflowed"
        if flips.replay(K, r.trajectory).facets != r.complex.facets:
            return "replaying the trajectory does not reproduce the result"
        return None


# -- invariants ---------------------------------------------------------------


class Invariants:
    """The ``homology`` (over Z and GF(2)) and ``pi1`` commands."""

    name = "invariants"

    def setup(self, seed: int, smoke: bool, outdir: str) -> Inputs:
        rp2 = generators.rp2_6()
        # reduced Z homology as (betti, torsion), reduced GF(2) Betti numbers,
        # and the abelianization of pi1 (None: simply connected, so any
        # verdict but NON_TRIVIAL)
        rp2_expect = ((0, 0, 0), ((), (2,), ()), (0, 1, 1), (0, (2,)))
        susp_expect = ((0, 0, 0, 0), ((), (), (2,), ()), (0, 0, 1, 1), None)
        spheres = [("sd1_bd4", "sd:1:bd_simplex:4")]
        if not smoke:
            spheres = [("sd2_bd4", "sd:2:bd_simplex:4"), ("sd1_bd5", "sd:1:bd_simplex:5")] + spheres
        cases = []
        for label, spec in spheres:
            K = cli.resolve_complex(spec)
            b = (0,) * K.dim + (1,)
            cases.append((label, K, (b, ((),) * len(b), b, None)))
        cases.append(("rp2", rp2, rp2_expect))
        cases.append(("susp_rp2", generators.suspension(rp2), susp_expect))
        budget = 10**4 if smoke else PI1_BUDGET
        ops = []
        for i, (label, K, expect) in enumerate(cases):
            ops.append(Op(label, "homology_z", (K.facets,), expect))
            ops.append(Op(label, "homology_gf2", (K.facets,), expect))
            ops.append(Op(label, "pi1", (K.facets, derive(seed, "pi1", i), budget), expect))
        return Inputs(ops)

    def run(self, op: Op):
        K = SimplicialComplex(op.args[0])
        if op.kind == "homology_z":
            return homology.homology(K, "Z", reduced=True)
        if op.kind == "homology_gf2":
            return homology.homology(K, 2, reduced=True)
        P = pi1.pi1_presentation(K, base_tree_seed=op.args[1])
        return pi1.triviality_verdict(P, op.args[2])

    def counters(self, op: Op, res) -> tuple:
        if op.kind == "pi1":
            return (res.verdict.value, tuple(sorted(res.trace.as_dict().items())), res.abelianization)
        return (res.betti, res.torsion)

    def check(self, op: Op, res) -> str | None:
        betti, torsion, gf2, abelian = op.expect
        if op.kind == "homology_z" and (res.betti, res.torsion) != (betti, torsion):
            return f"H = {res.betti} {res.torsion}, expected {betti} {torsion}"
        if op.kind == "homology_gf2" and res.betti != gf2:
            return f"GF(2) Betti numbers {res.betti}, expected {gf2}"
        if op.kind == "pi1":
            non_trivial = res.verdict is pi1.Verdict.NON_TRIVIAL
            if abelian is None and non_trivial:
                return f"pi1 called non-trivial ({res.abelianization}) on a simply connected complex"
            if abelian is not None and (not non_trivial or res.abelianization != abelian):
                return f"pi1 verdict {res.verdict.value} {res.abelianization}, expected abelianization {abelian}"
        return None


# -- pipeline -----------------------------------------------------------------


class Pipeline:
    """One pass of ``recognize``, ``flips`` and ``invariants`` each.

    The benchmark's time budget allows two workloads of 50 s or four of
    24 s, and on a shared host a 24 s run is too short to average out the
    host's own changes of speed.  Each part still reports its own layers
    in the traced run, and can be run alone through ``worker.py``.
    """

    name = "pipeline"

    def __init__(self, *parts):
        self.parts = parts
        self._by_kind: dict = {}

    def setup(self, seed: int, smoke: bool, outdir: str) -> Inputs:
        ops, workdir = [], None
        for part in self.parts:
            inputs = part.setup(seed, smoke, outdir)
            ops += inputs.ops
            workdir = workdir or inputs.workdir
            for op in inputs.ops:
                self._by_kind[op.kind] = part
        return Inputs(ops, workdir)

    def run(self, op: Op):
        return self._by_kind[op.kind].run(op)

    def counters(self, op: Op, res) -> tuple:
        return self._by_kind[op.kind].counters(op, res)

    def check(self, op: Op, res) -> str | None:
        return self._by_kind[op.kind].check(op, res)


_PARTS = (Recognize(), Flips(), Invariants())
WORKLOADS = {w.name: w for w in (Spectrum(), *_PARTS, Pipeline(*_PARTS))}

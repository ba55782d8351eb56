"""Command-line front end.

Complexes are read from facet files (text or JSON) or built in place from
specifiers like ``simplex:8``, ``bd_simplex:4``, ``sd:2:bd_simplex:4``,
``saw_blade:3`` or ``rp2_6``.  Exit codes: 64 usage, 65 bad input data,
70 capacity exceeded, 74 I/O; ``recognize`` exits with its verdict
(0 YES, 1 NO, 2 UNDECIDED, 3 topological sphere only).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import generators, io
from .complex_core import DEFAULT_CAPACITY, SimplicialComplex
from .errors import CapacityExceeded, InvalidSpec, PLSphereError
from .flips import AnnealingSchedule, bistellar_simplify, trajectory_tsv
from .homology import homology
from .morse import (
    Strategy,
    format_vector,
    matching_certificate_text,
    morse_spectrum,
    random_discrete_morse,
    spectrum_tsv,
)
from .pi1 import pi1_presentation, triviality_verdict
from .recognizer import RecognitionConfig, recognize

EX_USAGE = 64
EX_DATAERR = 65
EX_CAPACITY = 70
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def resolve_complex(spec: str, capacity: int = DEFAULT_CAPACITY) -> SimplicialComplex:
    """A builtin specifier, or failing that a facet-file path."""
    head = spec.split(":", 1)[0]
    if head == "sd":
        _, k, rest = spec.split(":", 2)
        rounds = int(k)
        if rounds < 0:
            raise InvalidSpec(f"negative subdivision count in {spec!r}")
        K = resolve_complex(rest, capacity)
        for _ in range(rounds):
            K = K.barycentric_subdivision(capacity=capacity)
        return K
    if head in generators.GENERATORS:
        build = generators.GENERATORS[head]
        params = [int(p) for p in spec.split(":")[1:]]
        signature = inspect.signature(build)
        try:
            signature.bind(*params)
        except TypeError:
            raise InvalidSpec(
                f"{head} takes {len(signature.parameters)} parameter(s), not {len(params)}"
            ) from None
        return build(*params)
    return io.read_complex(spec)


def _emit(report: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(text)


def _cmd_generate(args) -> int:
    name = args.name
    if name not in generators.GENERATORS and not name.startswith("sd:"):
        raise PLSphereError(f"unknown generator {name!r}")
    spec = name if not args.params else name + ":" + ":".join(args.params)
    K = resolve_complex(spec)
    if args.output:
        io.write_complex(K, args.output, fmt=args.file_format)
    else:
        sys.stdout.write(io.facet_text(K) if args.file_format == "text" else io.facet_json(K))
    return 0


def _cmd_check(args) -> int:
    K = resolve_complex(args.complex)
    pure = K.is_pure()
    ok, witness = (K.is_closed_pseudomanifold() if pure else (False, None))
    connected = K.is_connected()
    report = {
        "dimension": K.dim,
        "f_vector": list(K.f_vector()),
        "euler_characteristic": K.euler_characteristic(),
        "pure": pure,
        "closed_pseudomanifold": ok,
        "connected": connected,
    }
    if not ok and witness is not None:
        report["bad_ridge"] = {"ridge": list(witness[0]), "facet_count": witness[1]}
    text = "".join(f"{k}: {v}\n" for k, v in report.items())
    _emit(report, args.format, text)
    return 0


def _cmd_morse(args) -> int:
    K = resolve_complex(args.complex)
    res = random_discrete_morse(K, Strategy(args.strategy), seed=args.seed)
    report = {
        "strategy": args.strategy,
        "seed": args.seed,
        "morse_vector": list(res.vector),
        "critical_faces": [list(f) for f in res.critical],
    }
    text = (
        f"strategy: {args.strategy}\nseed: {args.seed}\n"
        f"morse_vector: {format_vector(res.vector)}\n"
    )
    if args.certificate:
        text += matching_certificate_text(res)
        report["matching"] = [[list(a), list(b)] for a, b in res.matching]
    _emit(report, args.format, text)
    return 0


def _cmd_spectrum(args) -> int:
    K = resolve_complex(args.complex)
    res = morse_spectrum(K, Strategy(args.strategy), rounds=args.rounds, seed=args.seed)
    report = {
        "strategy": args.strategy,
        "seed": args.seed,
        "rounds": args.rounds,
        "spectrum": [
            {"morse_vector": list(v), "count": c} for v, c in res.sorted_items()
        ],
    }
    _emit(report, args.format, spectrum_tsv(res, include_runtime=not args.no_runtime))
    return 0


def _cmd_homology(args) -> int:
    K = resolve_complex(args.complex)
    hg = homology(K, args.coefficients, reduced=args.reduced)
    _emit(hg.report_dict(), args.format, hg.report_text())
    return 0


def _cmd_pi1(args) -> int:
    K = resolve_complex(args.complex)
    P = pi1_presentation(K, base_tree_seed=args.seed)
    verdict = triviality_verdict(P, effort_limit=args.budget)
    report = {"seed": args.seed, "generators": P.generators, "relators": len(P.relators)}
    report.update(verdict.as_dict())
    text = f"seed: {args.seed}\n"
    if args.export:
        text += P.export_text()
    text += f"verdict: {verdict.verdict.value}\n"
    if verdict.abelianization is not None:
        rank, torsion = verdict.abelianization
        text += f"abelianization: free rank {rank}, torsion {list(torsion)}\n"
    _emit(report, args.format, text)
    return 0


def _cmd_flips(args) -> int:
    K = resolve_complex(args.complex)
    heat = tuple(int(x) for x in args.heat_dist.split(",")) if args.heat_dist else None
    schedule = AnnealingSchedule(
        alpha=args.cool_threshold_alpha,
        beta=args.cool_threshold_beta,
        gamma=args.heat_gamma,
        heat_weights=heat,
    )
    res = bistellar_simplify(K, seed=args.seed, max_rounds=args.rounds, schedule=schedule)
    report = {
        "seed": args.seed,
        "rounds": res.rounds,
        "best_f_vector": list(res.best_f),
        "reached_simplex_boundary": res.reached_simplex_boundary,
    }
    text = (
        f"seed: {args.seed}\nrounds: {res.rounds}\n"
        f"best_f_vector: {format_vector(res.best_f)}\n"
        f"reached_simplex_boundary: {res.reached_simplex_boundary}\n"
    )
    if args.trajectory:
        with open(args.trajectory, "w") as fh:
            fh.write(trajectory_tsv(res.trajectory))
    if args.output:
        io.write_complex(res.complex, args.output)
    _emit(report, args.format, text)
    return 0


def _cmd_recognize(args) -> int:
    K = resolve_complex(args.complex)
    cfg = RecognitionConfig(
        morse_rounds=args.morse_rounds,
        flip_rounds=args.flip_rounds,
        strategy=Strategy(args.strategy),
        seed=args.seed,
        pi1_budget=args.pi1_budget,
    )
    verdict = recognize(K, cfg)
    report = {"seed": args.seed, **verdict.as_dict()}
    text = f"seed: {args.seed}\nanswer: {verdict.answer.value}\n"
    if verdict.certificate is not None:
        text += f"certificate: {verdict.certificate.kind}\n"
    for line in verdict.log:
        text += f"  {line}\n"
    _emit(report, args.format, text)
    return verdict.answer.exit_code


def build_parser() -> _Parser:
    p = _Parser(prog="plsphere", description=__doc__)
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a builtin complex")
    g.add_argument("name")
    g.add_argument("params", nargs="*")
    g.add_argument("-o", "--output")
    g.add_argument("--file-format", choices=("text", "json"), default="text")
    g.set_defaults(func=_cmd_generate)

    def add(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument(
            "complex_arg", nargs="?", default=None,
            metavar="complex", help="facet file or builtin specifier",
        )
        sp.add_argument("--complex", dest="complex_opt", default=None, help=argparse.SUPPRESS)
        sp.set_defaults(func=func)
        return sp

    add("check", _cmd_check, "f-vector and pseudomanifold checks")

    m = add("morse", _cmd_morse, "one random discrete Morse run")
    m.add_argument("--strategy", choices=[s.value for s in Strategy], default="random-random")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--certificate", action="store_true", help="print the acyclic matching")

    s = add("spectrum", _cmd_spectrum, "distribution of Morse vectors over many runs")
    s.add_argument("--strategy", choices=[st.value for st in Strategy], default="random-random")
    s.add_argument("--rounds", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--no-runtime", action="store_true", help="omit the runtime comment line")

    h = add("homology", _cmd_homology, "homology groups")
    h.add_argument("--coefficients", default="Z", help="Z, Q, or a prime p < 2^31")
    h.add_argument("--reduced", action="store_true")

    q = add("pi1", _cmd_pi1, "fundamental-group presentation and triviality verdict")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=10**6)
    q.add_argument("--export", action="store_true", help="print the presentation")

    f = add("flips", _cmd_flips, "bistellar-flip simplification")
    f.add_argument("--rounds", type=int, default=10**5)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--cool-threshold-alpha", type=float, default=0.1)
    f.add_argument("--cool-threshold-beta", type=float, default=10.0)
    f.add_argument("--heat-gamma", type=float, default=2.0)
    f.add_argument("--heat-dist", help="comma-separated weights by move dimension")
    f.add_argument("--trajectory", help="write the move trajectory TSV here")
    f.add_argument("-o", "--output", help="write the simplified complex here")

    r = add("recognize", _cmd_recognize, "decide whether the input is a PL sphere")
    r.add_argument("--morse-rounds", type=int, default=100)
    r.add_argument("--flip-rounds", type=int, default=10**6)
    r.add_argument("--strategy", choices=[st.value for st in Strategy], default="random-random")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--pi1-budget", type=int, default=10**6)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "complex_arg"):
        args.complex = args.complex_opt or args.complex_arg
        if args.complex is None:
            parser.error(f"{args.command}: a complex (file or specifier) is required")
    try:
        return args.func(args)
    except CapacityExceeded as e:
        print(f"plsphere: capacity exceeded: {e}", file=sys.stderr)
        return EX_CAPACITY
    except OSError as e:
        print(f"plsphere: {e}", file=sys.stderr)
        return EX_IOERR
    except (PLSphereError, ValueError) as e:
        print(f"plsphere: {e}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    raise SystemExit(main())

"""Known-answer files: seeded outputs pinned across commits.

Each file under ``golden/`` is the exact text of one seeded computation:
Morse spectra, perturbed spheres with their flip trajectories,
``recognize --format json`` reports, one per answer kind, and
``homology``/``pi1 --format json`` reports.  A change that
alters any of them changes a seeded output; regenerate the files only for
such a change made on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io as textio
import os
import sys
import tempfile
from pathlib import Path

import pytest

from plsphere import generators, io
from plsphere.cli import main, resolve_complex
from plsphere.flips import bistellar_simplify, trajectory_tsv
from plsphere.morse import Strategy, morse_spectrum, spectrum_tsv

GOLDEN = Path(__file__).parent / "golden"


def _spectrum(spec: str, strategy: str, rounds: int, seed: int) -> str:
    res = morse_spectrum(resolve_complex(spec), Strategy(strategy), rounds=rounds, seed=seed)
    return spectrum_tsv(res, include_runtime=False)


def _perturbed(seed: int):
    return generators.perturbed_sphere(3, 20, 200, 0, seed)


def _trajectory(seed: int) -> str:
    res = bistellar_simplify(_perturbed(seed), seed=seed, max_rounds=10**5)
    return trajectory_tsv(res.trajectory)


def _json(*argv: str) -> str:
    out = textio.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--format", "json", *argv])
    return out.getvalue()


def _recognize(*argv: str) -> str:
    return _json("recognize", *argv)


def _recognize_suspended_rp2() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "susp_rp2_6.txt")
        io.write_complex(generators.suspension(generators.rp2_6()), path)
        return _recognize(path)


#: golden file name -> the computation whose output it holds
CASES = {
    "spectrum_rp2_6_random-random_200.tsv": lambda: _spectrum("rp2_6", "random-random", 200, 0),
    "spectrum_sd1_bd4_random-lex-last_20.tsv": lambda: _spectrum(
        "sd:1:bd_simplex:4", "random-lex-last", 20, 0
    ),
    **{
        f"perturbed_sphere_3_20_200_0_{s}.txt": (lambda s=s: io.facet_text(_perturbed(s)))
        for s in range(3)
    },
    **{f"trajectory_{s}.tsv": (lambda s=s: _trajectory(s)) for s in range(3)},
    "recognize_yes_bd_simplex_4.json": lambda: _recognize("bd_simplex:4"),
    "recognize_no_susp_rp2_6.json": _recognize_suspended_rp2,
    "recognize_undecided_sd1_bd4.json": lambda: _recognize(
        "sd:1:bd_simplex:4", "--morse-rounds", "0", "--pi1-budget", "1", "--flip-rounds", "0"
    ),
    **{
        f"homology_{spec.replace(':', '_')}_{coeff}.json": (
            lambda spec=spec, coeff=coeff: _json("homology", spec, "--coefficients", coeff)
        )
        for spec, coeffs in [
            ("rp2_6", ("Z", "2", "3")),
            ("saw_blade:3", ("Z", "2")),
            ("sd:1:bd_simplex:4", ("Z", "2")),
        ]
        for coeff in coeffs
    },
    "pi1_rp2_6_seed0.json": lambda: _json("pi1", "rp2_6", "--seed", "0"),
    "pi1_sd1_bd4_seed1.json": lambda: _json("pi1", "sd:1:bd_simplex:4", "--seed", "1"),
    # the budget runs out, so this pins the Tietze operation count
    "pi1_sd1_bd5_seed0_budget100000.json": lambda: _json(
        "pi1", "sd:1:bd_simplex:5", "--seed", "0", "--budget", "100000"
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert CASES[name]() == (GOLDEN / name).read_text(), name


def test_golden_answers_cover_every_kind():
    answers = {
        name: (GOLDEN / name).read_text() for name in CASES if name.startswith("recognize_")
    }
    assert '"answer": "YES"' in answers["recognize_yes_bd_simplex_4.json"]
    assert '"answer": "NO"' in answers["recognize_no_susp_rp2_6.json"]
    assert '"answer": "UNDECIDED"' in answers["recognize_undecided_sd1_bd4.json"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in CASES.items():
        (GOLDEN / name).write_text(make())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)

"""Known-answer files: seeded outputs pinned across commits.

Each file under ``golden/`` is the exact text of one seeded computation:
sha256 digests of subdivided complexes, Morse spectra, ``morse
--certificate`` matchings, perturbed spheres with their flip trajectories,
``recognize --format json`` reports, one per answer kind, and
``homology``/``pi1 --format json`` reports.  A change that
alters any of them changes a seeded output; regenerate the files only for
such a change made on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
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


def _perturbed(seed: int, d: int = 3):
    # dimension 4 adds mixed 1-/2-moves, so both move kinds are pinned
    args = (20, 200, 0) if d == 3 else (10, 60, 40)
    return generators.perturbed_sphere(d, *args, seed)


def _trajectory(seed: int, d: int = 3) -> str:
    res = bistellar_simplify(_perturbed(seed, d), seed=seed, max_rounds=10**5)
    return trajectory_tsv(res.trajectory)


def _json(*argv: str) -> str:
    out = textio.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--format", "json", *argv])
    return out.getvalue()


def _subdivision_digests(*specs: str) -> str:
    return "".join(
        f"{spec} {hashlib.sha256(io.facet_text(resolve_complex(spec)).encode()).hexdigest()}\n"
        for spec in specs
    )


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
    "spectrum_simplex_8_random-lex-first_30.tsv": lambda: _spectrum(
        "simplex:8", "random-lex-first", 30, 0
    ),
    # the certificate pins the order in which faces are matched
    **{
        f"morse_sd1_bd4_{st.value}_seed3.json": (
            lambda st=st: _json(
                "morse", "sd:1:bd_simplex:4", "--certificate", "--seed", "3", "--strategy", st.value
            )
        )
        for st in Strategy
    },
    **{
        f"perturbed_sphere_3_20_200_0_{s}.txt": (lambda s=s: io.facet_text(_perturbed(s)))
        for s in range(3)
    },
    **{f"trajectory_{s}.tsv": (lambda s=s: _trajectory(s)) for s in range(3)},
    **{
        f"perturbed_sphere_4_10_60_40_{s}.txt": (lambda s=s: io.facet_text(_perturbed(s, 4)))
        for s in range(2)
    },
    **{f"trajectory_4_{s}.tsv": (lambda s=s: _trajectory(s, 4)) for s in range(2)},
    # the facets of the paper's subdivided inputs, criterion 5's among them
    "subdivision_sha256.txt": lambda: _subdivision_digests(
        "sd:1:bd_simplex:5", "sd:2:bd_simplex:4", "sd:3:bd_simplex:4"
    ),
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
    "pi1_sd1_bd5_seed0_budget1000.json": lambda: _json(
        "pi1", "sd:1:bd_simplex:5", "--seed", "0", "--budget", "1000"
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

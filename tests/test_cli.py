import inspect
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from plsphere import cli, generators, io, pi1
from plsphere.cli import main
from plsphere.flips import AnnealingSchedule, bistellar_simplify
from plsphere.homology import homology
from plsphere.morse import Strategy
from plsphere.recognizer import RecognitionConfig

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def test_generate_round_trip(tmp_path, capsys):
    for spec, builder in [
        ("rp2_6", generators.rp2_6),
        ("saw_blade:3", lambda: generators.saw_blade(3)),
        ("bd_simplex:4", lambda: generators.boundary_of_simplex(4)),
        ("simplex:3", lambda: generators.simplex(3)),
    ]:
        path = tmp_path / "out.fct"
        name, *params = spec.split(":")
        code, out, err = run(capsys, "generate", name, *params, "-o", str(path))
        assert code == 0
        assert io.read_complex(str(path)) == builder()


def test_generate_accepts_parametrized_specifier(capsys):
    code, joined, _ = run(capsys, "generate", "saw_blade:2")
    assert code == 0
    code, split, _ = run(capsys, "generate", "saw_blade", "2")
    assert code == 0
    assert joined == split == io.facet_text(generators.saw_blade(2))
    code, _, err = run(capsys, "generate", "nonsense:2")
    assert code == 65
    assert "unknown generator" in err


def test_generate_json_file(tmp_path, capsys):
    path = tmp_path / "k.json"
    code, _, _ = run(capsys, "generate", "rp2_6", "-o", str(path), "--file-format", "json")
    assert code == 0
    assert io.read_complex(str(path)) == generators.rp2_6()


def test_check_text_and_json(capsys):
    code, out, err = run(capsys, "check", "bd_simplex:4")
    assert code == 0
    assert "f_vector: [5, 10, 10, 5]" in out
    code, report = run_json(capsys, "check", "rp2_6")
    assert code == 0
    assert report["euler_characteristic"] == 1
    assert report["closed_pseudomanifold"] is True


def test_check_reports_bad_ridge(capsys, tmp_path):
    path = tmp_path / "bad.fct"
    path.write_text("0 1 2\n0 1 3\n0 1 4\n")
    code, report = run_json(capsys, "check", str(path))
    assert code == 0
    assert report["closed_pseudomanifold"] is False
    assert report["bad_ridge"] == {"ridge": [0, 1], "facet_count": 3}


def test_morse_command(capsys):
    code, report = run_json(capsys, "morse", "simplex:5", "--seed", "3", "--certificate")
    assert code == 0
    assert report["seed"] == 3
    assert report["morse_vector"] == [1, 0, 0, 0, 0, 0]
    assert len(report["matching"]) * 2 + 1 == 63


def test_spectrum_command(capsys):
    code, out, _ = run(
        capsys, "spectrum", "simplex:5", "--rounds", "20",
        "--seed", "1", "--no-runtime",
    )
    assert code == 0
    assert "(1,0,0,0,0,0)\t20" in out
    assert "seed=1" in out
    code, report = run_json(
        capsys, "spectrum", "simplex:4", "--rounds", "10", "--seed", "2"
    )
    assert code == 0
    assert report["spectrum"] == [{"morse_vector": [1, 0, 0, 0, 0], "count": 10}]


def test_homology_command(capsys):
    code, out, _ = run(capsys, "homology", "rp2_6")
    assert code == 0
    assert out == "H_0 = Z\nH_1 = Z/2\nH_2 = 0\n"
    code, out, _ = run(capsys, "homology", "rp2_6", "--coefficients", "2")
    assert out == "H_0 = GF(2)\nH_1 = GF(2)\nH_2 = GF(2)\n"
    code, report = run_json(capsys, "homology", "rp2_6", "--coefficients", "2")
    assert report["betti"] == [1, 1, 1]
    code, report = run_json(capsys, "homology", "bd_simplex:4", "--reduced")
    assert report["betti"] == [0, 0, 0, 1]


def test_pi1_command(capsys):
    code, report = run_json(capsys, "pi1", "rp2_6", "--seed", "4")
    assert code == 0
    assert report["verdict"] == "non-trivial"
    assert report["abelianization"] == {"free_rank": 0, "torsion": [2]}


def test_flips_command(tmp_path, capsys):
    out_file = tmp_path / "simplified.fct"
    traj = tmp_path / "traj.tsv"
    code, report = run_json(
        capsys, "flips", "sd:1:bd_simplex:3", "--rounds", "5000", "--seed", "1",
        "-o", str(out_file), "--trajectory", str(traj),
    )
    assert code == 0
    assert report["reached_simplex_boundary"] is True
    assert report["best_f_vector"] == [4, 6, 4]
    assert io.read_complex(str(out_file)).f_vector() == (4, 6, 4)
    assert traj.read_text().startswith("round\tface_dim\tface\tf_vector")


def test_recognize_exit_codes(capsys):
    code, report = run_json(capsys, "recognize", "bd_simplex:4")
    assert code == 0
    assert report["answer"] == "YES"
    code, report = run_json(capsys, "recognize", "rp2_6")
    assert code == 1
    assert report["answer"] == "NO"


def test_sd_specifier(capsys):
    code, report = run_json(capsys, "check", "sd:1:bd_simplex:2")
    assert code == 0
    assert report["f_vector"] == [6, 6]


def test_deeply_nested_sd_specifier_exit_0(capsys):
    # 3000 prefixes, far past the recursion limit, add up their rounds
    code, out, err = run(capsys, "check", "sd:0:" * 3000 + "rp2_6")
    assert code == 0
    assert err == ""
    assert "f_vector: [6, 15, 10]" in out
    code, report = run_json(capsys, "check", "sd:0:sd:1:" * 2 + "bd_simplex:2")
    assert report["f_vector"] == [12, 12]


def test_deeply_nested_json_exit_65(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"facets": ' + "[" * 100000 + "]" * 100000 + "}")
    code, out, err = run(capsys, "check", str(path))
    assert code == 65
    assert out == ""
    assert err == "plsphere: JSON input nested too deeply\n"


def _defaults(func) -> dict:
    return {
        name: p.default
        for name, p in inspect.signature(func).parameters.items()
        if p.default is not p.empty
    }


def test_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()

    def parse(*argv):
        return vars(parser.parse_args([*argv, "rp2_6"]))

    recognize = parse("recognize")
    recognize["strategy"] = Strategy(recognize["strategy"])
    fields = ("morse_rounds", "flip_rounds", "strategy", "seed", "pi1_budget")
    assert RecognitionConfig(**{k: recognize[k] for k in fields}) == RecognitionConfig()
    assert RecognitionConfig().pi1_budget == pi1.DEFAULT_BUDGET
    assert parse("pi1")["budget"] == _defaults(pi1.triviality_verdict)["effort_limit"]
    assert parse("pi1")["seed"] == _defaults(pi1.pi1_presentation)["base_tree_seed"]
    flips = parse("flips")
    simplify = _defaults(bistellar_simplify)
    assert (flips["rounds"], flips["seed"]) == (simplify["max_rounds"], simplify["seed"])
    schedule = (flips["cool_threshold_alpha"], flips["cool_threshold_beta"], flips["heat_gamma"])
    assert AnnealingSchedule(*schedule, flips["heat_dist"]) == AnnealingSchedule()
    homology_args = parse("homology")
    assert homology_args["coefficients"] == _defaults(homology)["coefficients"]
    assert homology_args["reduced"] == _defaults(homology)["reduced"]


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])  # missing complex
    assert exc.value.code == 64
    assert "the following arguments are required: complex" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64


def test_the_complex_is_named_only_by_the_positional_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--complex", "simplex:5"])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --complex" in err


def test_capacity_exit_70_before_enumerating(capsys):
    # 2^41 faces: the capacity check must come before face enumeration
    code, out, err = run(capsys, "morse", "simplex:40")
    assert code == 70
    assert out == ""
    assert err.startswith("plsphere: capacity exceeded")


def _limit_address_space():
    # if a refusal is missing, the build ends in a MemoryError, not in the
    # host's out-of-memory killer
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "sd:1:simplex:10"),  # 11! chains
        ("check", "simplex:40"),  # 2^41 - 1 faces
        ("homology", "simplex:40"),
        ("generate", "bd_simplex:99999"),  # 10^5 facets of 99999 vertices
        ("flips", "bd_simplex:30"),  # a star for each of 2^31 - 2 faces
        ("check", "saw_blade:99999999"),  # 7k - 2 triangles
        ("check", "perturbed_sphere:3:100000000:0:0:0"),  # 3 facets per new vertex
    ],
)
def test_capacity_exit_70_in_a_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "plsphere", *argv],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 70, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("plsphere: capacity exceeded: face capacity exceeded")


def test_memory_error_exit_70(capsys, monkeypatch):
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "resolve_complex", exhausted)
    code, out, err = run(capsys, "check", "sd:1:simplex:10")
    assert code == 70
    assert out == ""
    assert err.startswith("plsphere: capacity exceeded")


def test_io_error_exit_74(capsys):
    code, out, err = run(capsys, "homology", "/nonexistent/file.fct")
    assert code == 74
    assert err


def test_data_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.fct"
    bad.write_text("0 1 1\n")
    code, out, err = run(capsys, "homology", str(bad))
    assert code == 65


@pytest.mark.parametrize(
    "arg",
    [
        '{"facets": 5}',
        '{"facets": [1, 2]}',
        "[[0, null]]",
        '{"facets": [[0, null]]}',
        '{"facets": [[0, 1.7, 2]]}',
        '{"facets": [[0, true, 2]]}',
        "bd_simplex",
        "simplex:1:2",
        "perturbed_sphere:3",
    ],
)
def test_malformed_input_exit_65(tmp_path, capsys, arg):
    if arg[0] in "{[":
        path = tmp_path / "bad.json"
        path.write_text(arg)
        arg = str(path)
    code, out, err = run(capsys, "check", arg)
    assert code == 65
    assert err.startswith("plsphere: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, name",
    [("perturbed_sphere:3:-5:0:0:0", "add_vertices"), ("perturbed_sphere:3:2:-7:-1:0", "one_moves")],
)
def test_negative_perturbed_sphere_move_counts_exit_65(capsys, spec, name):
    code, out, err = run(capsys, "check", spec)
    assert code == 65
    assert out == ""
    assert err.startswith(f"plsphere: perturbed sphere needs {name} >= 0, not -")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+4"])
def test_facet_file_labels_that_are_not_ascii_digits_exit_65(tmp_path, capsys, token):
    path = tmp_path / "bad.fct"
    path.write_text(f"0 1 2\n0 1 {token}\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith(f"plsphere: line 2: vertex label {token!r} is not")


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("long.fct", f"0 1 2\n0 1 {'7' * 5000}\n", "line 2: vertex label of 5000 digits is too long"),
        ("long.json", f'{{"facets": [[0, {"7" * 5000}]]}}', "JSON integer of 5000 digits is too long"),
    ],
    ids=["text", "json"],
)
def test_facet_file_labels_of_too_many_digits_exit_65(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 65
    assert out == ""
    assert err == f"plsphere: {message}\n"


@pytest.mark.parametrize(
    "spec, form",
    [
        ("sd:1", "sd:<k>:<spec>"),
        ("sd:x:rp2_6", "sd:<k>:<spec>"),
        ("sd:1:", "sd:<k>:<spec>"),
        ("simplex:x", "simplex:<int>:..."),
        ("simplex:", "simplex:<int>:..."),
    ],
)
def test_malformed_specifier_names_its_form(capsys, spec, form):
    code, out, err = run(capsys, "check", spec)
    assert code == 65
    assert out == ""
    assert err == f"plsphere: {spec!r} is not of the form {form}\n"


def test_homology_rejects_non_prime_coefficients(capsys):
    for coefficients in ("0", "1", "4", "z", str(2**61 - 1)):
        code, out, err = run(capsys, "homology", "rp2_6", "--coefficients", coefficients)
        assert code == 65, coefficients
        assert out == ""
        assert "coefficients must be Z, Q or a prime below 2^31" in err


def test_negative_subdivision_count_exit_65(capsys):
    code, out, err = run(capsys, "check", "sd:-1:bd_simplex:3")
    assert code == 65
    assert "negative subdivision count" in err


@pytest.mark.parametrize("weights", ["0,0,0,0,0,1", "0,0,0,0,1", "0,0", "1,-1"])
def test_bad_heat_dist_exit_65(capsys, weights):
    # a 3-sphere has k-moves for k <= 3 only
    code, out, err = run(capsys, "flips", "perturbed_sphere:3:5:20:0:1", "--heat-dist", weights)
    assert code == 65
    assert out == ""
    assert err.startswith("plsphere: heat weights")


@pytest.mark.parametrize("weights", ["a", "1,,2", " "])
def test_malformed_heat_dist_is_a_usage_error(capsys, weights):
    with pytest.raises(SystemExit) as exc:
        main(["flips", "perturbed_sphere:3:5:20:0:1", "--heat-dist", weights])
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --heat-dist: {weights!r} is not a comma-separated list of integers" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("flips", "--cool-threshold-alpha", "inf"), "annealing alpha, beta, gamma"),
        (("flips", "--cool-threshold-alpha", "nan"), "annealing alpha, beta, gamma"),
        (("flips", "--cool-threshold-beta", "-1"), "annealing alpha, beta, gamma"),
        (("flips", "--heat-gamma=-inf"), "annealing alpha, beta, gamma"),
        (("flips", "--rounds", "-3"), "flip rounds must be >= 0"),
        (("pi1", "--budget", "0"), "the Tietze budget must be positive"),
        (("pi1", "--budget", "-5"), "the Tietze budget must be positive"),
    ],
)
def test_bad_rounds_budget_and_schedule_exit_65(capsys, argv, message):
    # the same limits recognize refuses through --flip-rounds and --pi1-budget
    command, *options = argv
    code, out, err = run(capsys, command, "perturbed_sphere:3:20:200:0:7", *options)
    assert code == 65
    assert out == ""
    assert err.startswith(f"plsphere: {message}")


@pytest.mark.parametrize("option", ["--heat-gamma", "--cool-threshold-alpha"])
def test_huge_finite_schedule_coefficient_exit_0(capsys, option):
    # 1e308 * facets overflows to inf; the counts are capped, not converted
    code, out, err = run(
        capsys, "flips", "perturbed_sphere:3:20:200:0:7", option, "1e308", "--rounds", "200"
    )
    assert code == 0
    assert err == ""
    assert "rounds: " in out


def test_seed_echoed(capsys):
    code, out, _ = run(capsys, "morse", "simplex:3", "--seed", "9")
    assert "seed: 9" in out


def _readme_commands() -> list[list[str]]:
    """The argument lists of the ``plsphere`` lines in README's CLI block."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("plsphere ")
    ]


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()

import json
from pathlib import Path

import jsonschema
import pytest

from plsphere import generators, io
from plsphere.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report-schema.json").read_text()
)


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
        capsys, "spectrum", "--complex", "simplex:5", "--rounds", "20",
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


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])  # missing complex
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64


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


def test_seed_echoed(capsys):
    code, out, _ = run(capsys, "morse", "simplex:3", "--seed", "9")
    assert "seed: 9" in out

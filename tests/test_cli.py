import ast
import json
import os
import random
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import mpmath
import pytest

import dynbraid
from dynbraid.braid import parse_braid
from dynbraid.cli import main
from dynbraid.coords import DynnikovVector
from dynbraid.update import apply_braid

from conftest import FIXTURES, derive_alpha_1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_act_text(capsys):
    code, out, _ = run(
        capsys, "act", "-n", "4", "-w", "-3 2 -1", "-v", "[-1,-1,0,-1]"
    )
    assert code == 0
    assert out.strip() == "2 -3 -1 0"


def test_act_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "act",
        "-n",
        "4",
        "-w",
        "-3 2 -1",
        "-v",
        "[-1,-1,0,-1]",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == ["2", "-3"] and doc["b"] == ["-1", "0"]


def test_act_rational_vector(capsys):
    code, out, _ = run(capsys, "act", "-n", "3", "-w", "", "-v", '["1/2", "-2"]')
    assert code == 0
    assert out.strip() == "1/2 -2"


def test_act_bad_vector_exits_2(capsys):
    code, _, err = run(capsys, "act", "-n", "3", "-w", "1", "-v", "[not json")
    assert code == 2
    assert "error" in err


def test_act_wrong_length_exits_2(capsys):
    code, _, _ = run(capsys, "act", "-n", "3", "-w", "1", "-v", "[1,2,3]")
    assert code == 2


def test_missing_word_exits_2(capsys):
    code, _, err = run(capsys, "act", "-v", "[1,0]")
    assert code == 2
    assert "braid file" in err


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "matrix", "-n", "3", "-w", "1 -2")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrices"][0]["matrix"] == [["2", "1"], ["1", "1"]]
    assert all(len(row) == 2 for row in doc["matrices"][0]["region"])


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "-n", "3", "-w", "1 -2")
    assert code == 0
    assert "1 matrices" in out
    assert "[2, 1]" in out


def test_dilatation_text(capsys):
    code, out, _ = run(capsys, "dilatation", "-n", "3", "-w", "1 -2")
    assert code == 0
    assert out.startswith("2.61803398875")


def test_dilatation_identity_exits_3(capsys):
    code, _, err = run(capsys, "dilatation", "-n", "3", "-w", "")
    assert code == 3
    assert "error" in err


def test_dilatation_braid_file(tmp_path, capsys):
    bf = tmp_path / "words.braids"
    bf.write_text("# two words\nn=3 1 -2\nn=5 1 2 3 -4\n")
    code, out, _ = run(
        capsys, "--format", "json", "dilatation", "--braid-file", str(bf)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["dilatation"].startswith("2.618")
    assert json.loads(lines[1])["dilatation"].startswith("2.153")


def test_dilatation_non_positive_digits_exits_2(capsys):
    for digits in ("0", "-3"):
        code, out, err = run(
            capsys, "--digits", digits, "dilatation", "-n", "3", "-w", "1 -2"
        )
        assert code == 2
        assert out == ""
        assert "error: --digits" in err


def test_six_strand_penner_words_answer(capsys):
    # 6-strand Penner words: their char polys carry (x-1)^4 beside the factor of λ
    code, out, _ = run(capsys, "dilatation", "-n", "6", "-w", "-2 5 3 -4 5 1")
    assert code == 0
    assert float(out.split()[0]) > 1
    code, out, _ = run(capsys, "matrix", "-n", "6", "-w", "5 3 -4 -4 3 1 -2")
    assert code == 0
    assert "matrices" in out


def test_dilatation_never_calls_polyroots(capsys, monkeypatch):
    def stall(*args, **kwargs):
        raise mpmath.libmp.NoConvergence("Didn't converge in maxsteps=200 steps.")

    monkeypatch.setattr(mpmath, "polyroots", stall)
    code, out, _ = run(capsys, "dilatation", "-n", "3", "-w", "1 -2")
    assert code == 0
    assert out.startswith("2.61803398875")


def test_missing_braid_file_exits_2(capsys):
    code, _, _ = run(capsys, "dilatation", "--braid-file", "/nonexistent")
    assert code == 2


def test_compare_exact(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "compare",
        "-n",
        "4",
        "-w",
        "1 -2 3 3 3 2 1 -2",
        "--transition",
        str(FIXTURES / "tm_b4_word.json"),
        "--mode",
        "exact",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["isospectral"] is True
    assert doc["stripped_left"] == ["1", "-4", "-2", "-4", "1"]


def test_regions3_with_svg(tmp_path, capsys):
    svg = tmp_path / "arcs.svg"
    code, out, _ = run(
        capsys, "--format", "json", "regions3", "-w", "1 -2", "--svg", str(svg)
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 6
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<path") == 6


def test_track_pf(capsys):
    code, out, _ = run(
        capsys, "track", "pf", str(FIXTURES / "tm_gamma_T.json")
    )
    assert code == 0
    assert "lambda = 33.9705627485" in out


def test_track_pinch(capsys):
    code, out, _ = run(
        capsys, "track", "pinch", str(FIXTURES / "track_gamma_base.json"), "p"
    )
    assert code == 0
    assert "rank 4 complete True" in out


def test_track_extend(capsys):
    code, out, _ = run(
        capsys, "track", "extend", str(FIXTURES / "track_gamma_base.json")
    )
    assert code == 0
    assert "2 complete diagonal extensions" in out


COORDS_MEASURE = {
    "a": 8, "b": 6, "c": 10, "d": 4,
    "m1": 4, "m2": 3, "m3": 7, "m4": 2,
    "m5": 2, "m6": 4, "m7": 6,
}


def test_track_coords(capsys):
    code, out, _ = run(
        capsys,
        "track",
        "coords",
        str(FIXTURES / "track_b4_complete.json"),
        "--measure",
        json.dumps(COORDS_MEASURE),
    )
    assert code == 0
    assert out.strip() == "2 -2 -1 3"


@pytest.mark.parametrize(
    "change,why", [({"m5": 3}, "switch condition"), ({"a": -8}, "negative weight")]
)
def test_track_coords_rejects_a_bad_measure(capsys, change, why):
    measure = json.dumps({**COORDS_MEASURE, **change})
    path = str(FIXTURES / "track_b4_complete.json")
    code, out, err = run(capsys, "track", "coords", path, "--measure", measure)
    assert code == 2
    assert out == ""
    assert why in err


def test_track_conjugacy_true(capsys):
    code, out, _ = run(
        capsys,
        "track",
        "conjugacy",
        str(FIXTURES / "mat_gamma_D.json"),
        str(FIXTURES / "mat_gamma_L1.json"),
        str(FIXTURES / "tm_gamma_Tp.json"),
    )
    assert code == 0
    assert out.strip() == "True"


def test_track_conjugacy_false_exits_4(tmp_path, capsys):
    wrong = tmp_path / "tp.json"
    doc = json.loads((FIXTURES / "tm_gamma_Tp.json").read_text())
    doc["matrix"][3][0] = 9
    wrong.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "track",
        "conjugacy",
        str(FIXTURES / "mat_gamma_D.json"),
        str(FIXTURES / "mat_gamma_L1.json"),
        str(wrong),
    )
    assert code == 4
    assert out.strip() == "False"


def test_track_bad_file_exits_2(capsys):
    code, _, _ = run(capsys, "track", "pf", "/nonexistent.json")
    assert code == 2


def _count_applies(monkeypatch):
    import dynbraid.regions as regions

    calls = []
    plain = regions.apply_braid

    def counting(v, w):
        calls.append(1)
        return plain(v, w)

    monkeypatch.setattr(regions, "apply_braid", counting)
    return calls


def test_matrix_periodic_word_fails_fast(capsys, monkeypatch):
    calls = _count_applies(monkeypatch)
    code, out, err = run(capsys, "matrix", "-n", "5", "-w", "1 2 3 4")
    assert code == 3
    assert out == ""
    assert err == (
        "error: power 5 of the word fixes the integral lamination (0, 0, 0, 1, 1, 1): "
        "word is not pseudo-Anosov\n"
    )
    assert len(calls) < 20


def test_multitwist_fails_fast(capsys, monkeypatch):
    calls = _count_applies(monkeypatch)
    code, out, err = run(capsys, "dilatation", "-n", "4", "-w", "3 -3 1 -3 -3 3 -3")
    assert code == 3
    assert out == ""
    assert "fixes the integral lamination" in err
    assert len(calls) < 50


@pytest.mark.parametrize(
    "n, word",
    [
        (5, "-4 2 -4 -4 -4 -1"),  # converged, then "a larger-modulus eigenvalue exists"
        (6, "2 4 -5 -1"),  # "dominant real root is not simple"
        (6, "4 5 -4 -5 -2 1"),
        (6, "-2 -5 4 -5 -2 -1"),  # "dominant modulus attained off the real axis"
        (6, "5 -4 -2 -2 -4"),
    ],
)
def test_reducible_word_with_pa_piece_names_its_curve(capsys, n, word):
    code, out, err = run(capsys, "dilatation", "-n", str(n), "-w", word)
    assert code == 3
    assert out == ""
    found = re.fullmatch(
        r"error: power 1 of the word fixes the integral lamination (\(.*\)): "
        r"word is not pseudo-Anosov\n",
        err,
    )
    assert found, err
    c = DynnikovVector.from_flat(n, ast.literal_eval(found.group(1)))
    assert apply_braid(c, parse_braid(word, n)) == c


def test_dilatation_digits_60_are_exact(capsys):
    code, out, _ = run(capsys, "--digits", "60", "dilatation", "-n", "3", "-w", "1 -2")
    assert code == 0
    with mpmath.workdps(80):
        lam = (3 + mpmath.sqrt(5)) / 2
        expect = f"{mpmath.nstr(lam, 60)}  (log {mpmath.nstr(mpmath.log(lam), 60)})"
    assert out.strip() == expect


def test_track_pf_digits_60_are_exact(capsys):
    # the main block of tm_gamma_T has PF eigenvalue 17 + 12 sqrt 2
    code, out, _ = run(
        capsys, "--digits", "60", "track", "pf", str(FIXTURES / "tm_gamma_T.json")
    )
    assert code == 0
    with mpmath.workdps(80):
        expect = mpmath.nstr(17 + 12 * mpmath.sqrt(2), 60)
    assert out.splitlines()[0] == f"lambda = {expect}"


@pytest.mark.parametrize("flag", ["--precision", "--tol", "--seed", "--max-iters"])
@pytest.mark.parametrize(
    "command", [["matrix", "-n", "3", "-w", "1 -2"], ["regions3", "-w", "1 -2"]]
)
def test_removed_iteration_flags_exit_2(capsys, flag, command):
    with pytest.raises(SystemExit) as exc:
        main([f"{flag}=1", *command])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "unrecognized arguments" in out.err


def test_help_lists_only_the_global_options(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flags = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--format", "--digits", "--jobs"]  # beside -h, --help


@pytest.mark.parametrize(
    "vector, image",
    [
        pytest.param(vector, image, id=vector)
        for vector, image in [
            ("[NaN, 1]", None),
            ("[1e400, 1]", (1, 1 - 10**400)),
            ("[1e308, 1e308]", (10**308, 0)),
            ('["1/0", 1]', None),
            ('["1e400", 1.0]', (1, 1 - 10**400)),
        ]
    ],
)
def test_act_non_finite_vector_exits_2(capsys, vector, image):
    # NaN and a zero denominator exit 2; a number beyond the float range is
    # read exactly, and sigma_1 maps (a, b) to (b, b - a) when a >= b >= 0
    code, out, err = run(capsys, "act", "-n", "3", "-w", "1", "-v", vector)
    if image is None:
        assert (code, out) == (2, "")
        assert err.startswith("error:")
    else:
        assert (code, err) == (0, "")
        assert out == " ".join(map(str, image)) + "\n"


def test_act_reads_decimals_exactly(capsys):
    code, out, _ = run(capsys, "act", "-n", "3", "-w", "1", "-v", "[0.1, 1]")
    assert (code, out) == (0, "1/10 9/10\n")


@pytest.mark.parametrize("vector", ['["1e999999999", 1]', "[1e-999999999, 1]"])
def test_act_refuses_a_number_of_too_many_digits_at_once(capsys, vector):
    start = time.perf_counter()
    code, out, err = run(capsys, "act", "-n", "3", "-w", "1", "-v", vector)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "4300 digits" in err


def test_act_prints_every_digit_of_a_long_answer(capsys):
    word = " ".join(["1 -2"] * 12000)
    code, out, _ = run(capsys, "act", "-n", "3", "-w", word, "-v", "[1, 1]")
    assert code == 0
    want = apply_braid(DynnikovVector(3, (1,), (1,)), parse_braid(word, 3)).flat()
    limit = sys.get_int_max_str_digits()
    assert limit == 4300  # main restores the limit on converting ints to text
    sys.set_int_max_str_digits(0)
    try:
        assert out.split() == [str(x) for x in want]
        assert len(out.split()[0]) > limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_matrix_prints_every_digit_of_a_long_entry(capsys, monkeypatch):
    import dynbraid.cli as cli

    big = types.SimpleNamespace(matrix=((10**5000, 0), (0, 1)), region=((1, 0),))
    monkeypatch.setattr(cli, "dynnikov_matrices", lambda w: [big])
    code, out, _ = run(capsys, "--format", "json", "matrix", "-n", "3", "-w", "1 -2")
    assert code == 0
    assert json.loads(out)["matrices"][0]["matrix"][0] == ["1" + "0" * 5000, "0"]
    assert sys.get_int_max_str_digits() == 4300


def test_track_pf_refuses_a_fractional_entry(tmp_path, capsys):
    path = tmp_path / "tm.json"
    path.write_text('{"m": 2, "matrix": [[1.5, 1], [1, 1]]}')
    code, out, err = run(capsys, "track", "pf", str(path))
    assert (code, out) == (2, "")
    assert "a matrix entry must be an integer" in err


def test_track_extend_refuses_a_polygon_that_repeats_an_edge(tmp_path, capsys):
    doc = json.loads((FIXTURES / "track_gamma_base.json").read_text())
    doc["polygons"][0] = {"punctured": True, "vertices": 14, "edges": ["ma"] * 14}
    path = tmp_path / "track.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "track", "extend", str(path))
    assert (code, out) == (2, "")
    assert "none repeated" in err


def test_track_pinch_without_edge_exits_2(capsys):
    code, out, err = run(capsys, "track", "pinch", str(FIXTURES / "track_gamma_base.json"))
    assert code == 2
    assert out == ""
    assert "FILE EDGE" in err


def test_track_coords_without_measure_exits_2(capsys):
    code, out, err = run(capsys, "track", "coords", str(FIXTURES / "track_b4_complete.json"))
    assert code == 2
    assert out == ""
    assert "--measure" in err


def test_regions3_digits_are_exact(capsys):
    code, out, _ = run(capsys, "--digits", "30", "--format", "json", "regions3", "-w", "1 -2")
    assert code == 0
    ends = {x for arc in json.loads(out) for x in arc["arc"]}
    with mpmath.workdps(40):
        pi = mpmath.pi
        want = [mpmath.atan(mpmath.mpf(1) / 2), pi / 4, pi / 2, pi, 3 * pi / 2]
        assert {mpmath.nstr(x, 30) for x in want} <= ends


def test_regions3_single_arc_svg_is_drawn(tmp_path, capsys):
    svg = tmp_path / "arcs.svg"
    code, out, _ = run(capsys, "regions3", "-w", "1 -1", "--svg", str(svg))
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "<circle" in svg.read_text()


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
def test_jobs_out_of_range_exits_2(tmp_path, capsys, monkeypatch, jobs):
    import dynbraid.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    words = tmp_path / "words.txt"
    words.write_text("n=3 1 -2\nn=3 1 1 -2\n")
    code, out, err = run(capsys, "--jobs", str(jobs), "matrix", "--braid-file", str(words))
    assert code == 2
    assert out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("command", ["matrix", "dilatation"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_answers_every_word(tmp_path, capsys, monkeypatch, command, jobs):
    import dynbraid.cli as cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # --jobs 2 on any machine
    words = tmp_path / "words.txt"
    words.write_text("n=3 1 -2\nn=4 1 1 1\nn=3 1 -2 1 -2\n")
    code, out, err = run(
        capsys, "--format", "json", "--jobs", jobs, command, "--braid-file", str(words)
    )
    assert code == 3
    assert [json.loads(line)["word"] for line in out.splitlines()] == ["1 -2", "1 -2 1 -2"]
    assert err.splitlines() == [
        "error: n=4 1 1 1: power 1 of the word fixes the integral lamination (0, 0, 1, 1): "
        "word is not pseudo-Anosov"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["act", "-v", "[1, 2]"],
        ["compare", "--transition", str(FIXTURES / "tm_b4_word.json")],
    ],
)
def test_one_word_commands_reject_longer_braid_files(tmp_path, capsys, argv):
    words = tmp_path / "words.txt"
    words.write_text("n=3 1 -2\nn=3 1 1 -2\n")
    code, out, err = run(capsys, argv[0], "--braid-file", str(words), *argv[1:])
    assert code == 2
    assert out == ""
    assert "the braid file has 2" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["act", "-n", "3", "-w", "1", "-v", "5"], "a vector is a JSON list"),
        (["act", "-n", "3", "-w", "1", "-v", '{"n": 3}'], "a vector document is"),
        (["act", "-n", "3", "-w", "1", "-v", "[[1], 2]"], "expected a number"),
        (
            ["track", "coords", str(FIXTURES / "track_b4_complete.json"), "--measure", "[1]"],
            "--measure is a JSON object",
        ),
    ],
)
def test_malformed_json_exits_2(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {reason}")


@pytest.mark.parametrize("doc", [{"D": [[1]]}, {"matrix": [[1, 2], [3]]}, [[1]]])
def test_conjugacy_matrix_file_shape_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "track",
        "conjugacy",
        str(bad),
        str(FIXTURES / "mat_gamma_L1.json"),
        str(FIXTURES / "tm_gamma_Tp.json"),
    )
    assert code == 2
    assert out == ""
    assert "square rows" in err


def test_closed_stdout_exits_141_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(dynbraid.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dynbraid.cli", "matrix", "-n", "3", "-w", "1 -2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before the child writes
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_track_pf_close_eigenvalues_answer(capsys, tmp_path):
    # eigenvalues 1000 +- sqrt 2, too close for a power iteration to settle;
    # the eigenvector (1, sqrt 2) / sqrt 3 is read off adj(xI - M) exactly
    path = tmp_path / "slow.json"
    path.write_text('{"m": 2, "matrix": [[1000, 1], [2, 1000]]}')
    code, out, err = run(capsys, "track", "pf", str(path))
    assert (code, err) == (0, "")
    assert out == "lambda = 1001.41421356\nv = ['0.57735026919', '0.816496580928']\n"


def test_track_pf_verdict_does_not_depend_on_digits(capsys, tmp_path):
    # an entry 1e-15 relative to the other is positive at every --digits
    path = tmp_path / "tiny.json"
    path.write_text('{"m": 2, "matrix": [[1000000000000000, 0], [1, 1]]}')
    for digits in ("2", "12"):
        code, out, err = run(capsys, "--digits", digits, "track", "pf", str(path))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "v = ['1.0', '1.0e-15']"


def test_track_pf_random_matrices_are_decided_exactly(capsys, tmp_path):
    # the verdict may not depend on --digits, and each answer passes the bench oracle
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        from oracles import check_pf
    finally:
        sys.path.pop(0)
    rng = random.Random(34)
    entries = [0, 0, 1, 2, 3] + [10**e for e in range(1, 17)]
    answered = 0
    for i in range(100):
        m = rng.randint(2, 5)
        M = [[rng.choice(entries) for _ in range(m)] for _ in range(m)]
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps({"matrix": M}))
        codes = []
        for digits in ("2", "12"):
            argv = ["--format", "json", "--digits", digits, "track", "pf", str(path)]
            code, out, _ = run(capsys, *argv)
            codes.append(code)
        assert codes[0] == codes[1] in (0, 2), M
        if code == 0:
            answered += 1
            assert check_pf(types.SimpleNamespace(info={"matrix": M}), code, out) is None, M
    assert answered >= 50, answered


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["act", "-n", "3", "-w", "1", "-v", '["1/0", 1]'], "expected a rational string"),
        (["act", "-n", "3", "-w", "1", "-v", '["abc", 1]'], "expected a rational string"),
        (["act", "-n", "3", "-w", "1", "-v", "[1,"], "vector is not valid JSON"),
        (["act", "-n", "3", "-w", "1", "-v", '{"n": 3,'], "vector document is not valid JSON"),
        (
            ["track", "coords", str(FIXTURES / "track_b4_complete.json"), "--measure", "{"],
            "--measure is not valid JSON",
        ),
    ],
)
def test_malformed_input_raises_typed_errors(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {reason}")


def test_malformed_json_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[1, 2], ')
    good = str(FIXTURES / "mat_gamma_L1.json")
    for argv in (["pf", str(bad)], ["extend", str(bad)], ["conjugacy", str(bad), good, good]):
        code, out, err = run(capsys, "track", *argv)
        assert code == 2 and out == ""
        assert "is not valid JSON" in err
    bad.write_text('{"matrix": [[NaN]]}')
    code, out, err = run(capsys, "track", "conjugacy", str(bad), str(bad), str(bad))
    assert code == 2 and out == ""
    assert "is not valid JSON" in err and "NaN" in err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    import dynbraid.cli as cli

    def broken(w):
        raise ValueError("a defect, not bad input")

    monkeypatch.setattr(cli, "dynnikov_matrices", broken)
    with pytest.raises(ValueError, match="a defect"):
        main(["matrix", "-n", "3", "-w", "1 -2"])


@pytest.mark.parametrize(
    "n, word, curve",
    [
        (4, "1 -2", "(0, 0, 0, 1)"),
        (6, "-3 1 -1 3 -4 -2 1 1 5 1", "(0, 0, 0, 0, 0, 1, 0, 0)"),
        (6, "5 2 2 -3 -4 4 3 -1 5 -3 1 5", "(0, 0, 0, 0, -1, 0, 0, 0)"),
    ],
)
def test_unused_generator_exits_3(capsys, n, word, curve):
    code, out, err = run(capsys, "dilatation", "-n", str(n), "-w", word)
    assert code == 3
    assert out == ""
    assert err == (
        f"error: power 1 of the word fixes the integral lamination {curve}: "
        "word is not pseudo-Anosov\n"
    )


def _coords_with_annotations(tmp_path, capsys, edit):
    doc = json.loads((FIXTURES / "track_b4_complete.json").read_text())
    edit(doc["annotations"])
    path = tmp_path / "track.json"
    path.write_text(json.dumps(doc))
    measure = json.dumps(COORDS_MEASURE)
    return run(capsys, "track", "coords", str(path), "--measure", measure)


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda ann: ann.update(alpha_1="x"), "annotation 'alpha_1' is not an object"),
        (lambda ann: ann["beta_1"].update(counts=["a", 1]), "counts must map branch ids to ints"),
        (lambda ann: ann["beta_1"].update(counts={"a": 1.5}), "counts must map branch ids to ints"),
        (lambda ann: ann["beta_1"].update(counts={"zz": 1}), "counts must map branch ids to ints"),
        (lambda ann: ann["alpha_2"].update(paths=["-m2 b m6"]), "paths must be lists of branch"),
        (lambda ann: ann["alpha_2"].update(paths=[["-m2", 7]]), "paths must be lists of branch"),
        (
            lambda ann: ann.update(
                alpha_1={"derived_max_of": ["alpha_1", "alpha_2"], "minus": "alpha_3"}
            ),
            "annotations derive ['alpha_1'] from each other",
        ),
        (
            lambda ann: ann.update(
                alpha_1={"derived_max_of": ["alpha_2", "beta_1"], "minus": "beta_2"},
                alpha_2={"derived_max_of": ["beta_1", "alpha_1"], "minus": "beta_2"},
            ),
            "annotations derive ['alpha_1', 'alpha_2'] from each other",
        ),
        (
            lambda ann: ann.update(
                alpha_1={"derived_max_of": ["beta_1", "gamma"], "minus": "beta_2"}
            ),
            "derived_max_of must name two annotated arcs",
        ),
        (
            lambda ann: ann.update(alpha_1={"derived_max_of": ["beta_1", "beta_2"]}),
            "derived_max_of must name two annotated arcs",
        ),
    ],
)
def test_track_coords_rejects_malformed_annotations(tmp_path, capsys, edit, reason):
    code, out, err = _coords_with_annotations(tmp_path, capsys, edit)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("depth, diamond", [(3000, False), (200, True)])
def test_track_coords_evaluates_each_derived_arc_once(tmp_path, capsys, depth, diamond):
    code, out, _ = _coords_with_annotations(
        tmp_path, capsys, lambda ann: derive_alpha_1(ann, depth, diamond)
    )
    assert (code, out) == (0, "2 -2 -1 3\n")


def test_track_coords_reads_decimals_exactly(capsys):
    measure = ", ".join(f'"{k}": {v / 10}' for k, v in COORDS_MEASURE.items())
    path = str(FIXTURES / "track_b4_complete.json")
    code, out, _ = run(capsys, "track", "coords", path, "--measure", "{" + measure + "}")
    assert (code, out) == (0, "1/5 -1/5 -1/10 3/10\n")

import contextlib
import importlib
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diagrank
from diagrank.cli import _Escaped, _json_parts, _payload, build_parser, main, run_bench
from diagrank.generate import gen_random
from diagrank.gf2 import parse_matrix, rank, render_matrix, with_diagonal
from diagrank.gf2 import DiagonalAssignment
from diagrank.hieroglyph import overlap_matrix, parse_hieroglyph
from diagrank.rankmin import min_rank_decide, min_rank_exact, min_rank_oracle

ANTI_TEXT = "01\n10\n"
README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")

BASE_KEY_ORDER = ["command", "n", "k", "answer", "rank_bounds", "witness_diagonal", "achieved_rank"]
BASE_KEYS = set(BASE_KEY_ORDER)


def invoke(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv, stdin_text=None):
    code, out, err = invoke(argv + ["--json"], stdin_text)
    assert err == ""
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"  # the documented bytes
    return code, payload


@pytest.fixture
def anti_file(tmp_path):
    path = tmp_path / "anti.txt"
    path.write_text(ANTI_TEXT)
    return str(path)


# matrix pipeline ----------------------------------------------------------------


def test_rank_identity(tmp_path):
    path = tmp_path / "i2.txt"
    path.write_text("10\n01\n")
    code, out, err = invoke(["rank", str(path)])
    assert (code, out, err) == (0, "2\n", "")


def test_rank_reads_stdin():
    code, out, _ = invoke(["rank", "-"], stdin_text="10\n01\n")
    assert (code, out) == (0, "2\n")


@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_line_breaks_read_alike_from_file_and_stdin(tmp_path, via, eol):
    # a lone CR or CRLF is a line break on either input path
    for argv, text, expected in [
        (["rank"], f"01{eol}10{eol}", "2\n"),
        (["hiero", "overlap"], f"a{eol}b{eol}a{eol}b{eol}", "01\n10\n"),
    ]:
        if via == "file":
            path = tmp_path / "input.txt"
            path.write_bytes(text.encode())
            result = invoke([*argv, str(path)])
        else:
            result = invoke([*argv, "-"], stdin_text=text)
        assert result == (0, expected, ""), (argv, text)


def test_lone_cr_matrix_through_a_real_pipe():
    # the interpreter's own sys.stdin, which the io.StringIO stand-in above does not configure
    proc = subprocess.run(
        [sys.executable, "-m", "diagrank", "rank", "-"], input=b"01\r10\r", capture_output=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"2\n", b"")


def test_decide_yes_and_no(anti_file):
    code, out, _ = invoke(["decide", "--k", "1", anti_file])
    assert code == 0
    assert out == "yes witness=11 achieved_rank=1\n"
    code, out, _ = invoke(["decide", "--k", "0", anti_file])
    assert (code, out) == (1, "no\n")


def test_decide_json_payloads(anti_file):
    code, payload = invoke_json(["decide", "--k", "1", anti_file])
    assert code == 0
    assert BASE_KEYS <= payload.keys()
    assert payload["command"] == "decide"
    assert payload["n"] == 2 and payload["k"] == 1
    assert payload["answer"] == "yes"
    assert payload["witness_diagonal"] == "11"
    assert payload["achieved_rank"] == 1
    code, payload = invoke_json(["decide", "--k", "0", anti_file])
    assert code == 1
    assert payload["answer"] == "no" and payload["witness_diagonal"] is None


def test_readme_json_payload_example():
    # the JSON payload section of the README shows a command and its output
    section = README[README.index("### JSON payload") :]
    pattern = r"`printf '(.*?)' \| diagrank (.*?)` prints:\n\n```json\n(.*?)```"
    stdin_text, argv, shown = re.search(pattern, section, re.S).groups()
    code, out, err = invoke(shlex.split(argv), stdin_text=stdin_text.replace("\\n", "\n"))
    assert (code, out, err) == (0, shown, "")


# characters JSON escapes, non-ASCII ones and lone surrogates, then any character
json_chars = st.sampled_from('"\\/\n\r\t\x00\x1f\x7fé€😀\ud800\udfff')
json_text = st.text(json_chars | st.characters(exclude_categories=()), max_size=8)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**80), 10**80), st.floats(), json_text
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(json_text, json_values | st.lists(json_text, max_size=5), max_size=8))
def test_json_writer_matches_json_dumps(payload):
    assert "".join(_json_parts(payload)) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "word", ["abab", 'a"b c a"b c', "x\\y z z x\\y", "é ü é ü", "αβαβ", "\x01\x02\x01\x02"]
)
def test_every_json_payload_is_json_dumps_indent_2(anti_file, word):
    # invoke_json checks each stdout against json.dumps(json.loads(out), indent=2)
    for argv in (
        ["rank", anti_file],
        ["complete", anti_file],
        ["decide", "--k", "1", anti_file],
        ["approx", anti_file],
        ["exact", "--k-max", "1", anti_file],
        ["oracle", anti_file],
        ["upper-bound", anti_file],
        ["gen", "--n", "5", "--density", "0.25", "--seed", "3"],
        ["bench", "--algo", "rank", "--sizes", "2,3", "--reps", "1"],
        ["hiero", "overlap", word],
        ["hiero", "decide", "--k", "1", word],
        ["hiero", "approx", word],
        ["hiero", "canon", word],
    ):
        code, payload = invoke_json(argv)
        assert code == 0, argv
        if argv[0] == "hiero" and argv[1] != "canon":
            assert payload["alphabet"] == list(parse_hieroglyph(word).alphabet), argv


def test_readme_library_names_resolve():
    # every backticked name in the library bullets is a package attribute:
    # a bare name on diagrank, a dotted one on the module it names
    bullets = README[README.index("This package implements:") : README.index("## Install")]
    spans = re.findall(r"`([^`]*)`", bullets)
    assert "gf2.completed_rows" in spans
    for span in spans:
        match = re.fullmatch(r"(?:(\w+)\.)?(\w+)(?:\([\w, ]*\))?", span)
        assert match, span
        module, name = match.groups()
        owner = importlib.import_module(f"diagrank.{module}") if module else diagrank
        assert hasattr(owner, name), span


def test_readme_library_example_runs():
    (code,) = re.findall(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})


def test_approx_json(anti_file):
    code, payload = invoke_json(["approx", anti_file])
    assert code == 0
    bounds = payload["rank_bounds"]
    assert bounds["lower"] <= 1 <= bounds["upper"]
    m = parse_matrix(ANTI_TEXT)
    d = DiagonalAssignment.from_string(payload["witness_diagonal"])
    assert rank(with_diagonal(m, d)) == bounds["upper"] == payload["achieved_rank"]


def test_exact_answer_and_exhaustion(anti_file):
    code, out, _ = invoke(["exact", "--k-max", "2", anti_file])
    assert code == 0 and out == "rank=1 witness=11\n"
    code, payload = invoke_json(["exact", "--k-max", "0", anti_file])
    assert code == 1
    assert payload["answer"] == "exhausted" and payload["k"] == 0


def test_oracle_json(anti_file):
    code, payload = invoke_json(["oracle", anti_file])
    assert code == 0
    assert payload["rank_bounds"] == {"lower": 1, "upper": 1}
    assert payload["witness_diagonal"] == "11"


def test_upper_bound_json(tmp_path):
    path = tmp_path / "i3.txt"
    path.write_text("100\n010\n001\n")
    code, payload = invoke_json(["upper-bound", str(path)])
    assert code == 0
    assert payload["witness_diagonal"] == "000"
    assert payload["achieved_rank"] == 0
    assert payload["rank_bounds"] == {"lower": 0, "upper": 2}


def test_complete_json(anti_file):
    code, payload = invoke_json(["complete", anti_file])
    assert code == 0
    completed = parse_matrix(payload["matrix"])
    assert completed.to_lists() == [[1, 1], [1, 0]]
    assert payload["witness_diagonal"] == "10"
    assert payload["achieved_rank"] == 2


def test_complete_text(anti_file):
    code, out, _ = invoke(["complete", anti_file])
    assert code == 0
    assert out == "diagonal: 10\n11\n10\n"


def test_json_fields_present_on_all_matrix_subcommands(anti_file, tmp_path):
    random_file = tmp_path / "r9.txt"
    random_file.write_text(render_matrix(gen_random(9, 0.5, 4)))
    for path in (anti_file, str(random_file)):
        with open(path) as fh:
            m = parse_matrix(fh.read())
        minimum, _ = min_rank_oracle(m)  # 1 and 7
        for argv in (
            ["rank", path],
            ["complete", path],
            ["decide", "--k", "1", path],
            ["decide", "--k", str(m.n), path],
            ["decide", "--k", "0", path],
            ["approx", path],
            ["exact", "--k-max", "2", path],
            ["exact", "--k-max", str(m.n), path],
            ["exact", "--k-max", "0", path],
            ["oracle", path],
            ["upper-bound", path],
        ):
            code, payload = invoke_json(argv)
            budget = int(argv[2]) if argv[0] in ("decide", "exact") else None
            refused = budget is not None and budget < minimum
            assert code == (1 if refused else 0), argv
            assert (payload["answer"] in ("no", "exhausted")) == refused, argv
            assert BASE_KEYS <= payload.keys(), argv
            extra = ["matrix"] if argv[0] == "complete" else []
            assert list(payload) == BASE_KEY_ORDER + extra, argv
            assert payload["command"] == argv[0]
            assert payload["n"] == m.n
            witness = payload["witness_diagonal"]
            if refused:
                assert witness is None and payload["achieved_rank"] is None, argv
            elif witness is not None:
                d = DiagonalAssignment.from_string(witness)
                assert payload["achieved_rank"] == rank(with_diagonal(m, d)), argv


def test_shared_parser_keeps_no_state(anti_file):
    assert build_parser() is build_parser()
    code, _, _ = invoke(["gen", "--n", "3", "--seed", "5"])
    assert code == 0
    code, payload = invoke_json(["gen", "--n", "3"])
    assert code == 0 and payload["seed"] == 0 and payload["density"] == 0.5
    assert payload["matrix"] == render_matrix(gen_random(3, 0.5, 0))
    code, payload = invoke_json(["decide", "--k", "1", anti_file])
    assert code == 0 and payload["command"] == "decide" and payload["k"] == 1
    code, payload = invoke_json(["hiero", "decide", "--k", "0", "abab"])
    assert code == 1 and payload["command"] == "hiero-decide" and payload["k"] == 0
    assert payload["twist_witness"] is None
    code, payload = invoke_json(["decide", "--k", "1", anti_file])
    assert code == 0 and "alphabet" not in payload
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["decide", anti_file])
    assert exc.value.code == 2
    assert invoke(["rank", anti_file]) == (0, "2\n", "")


def test_json_flag_position_is_free(anti_file):
    _, first = invoke_json(["rank", anti_file])
    code, out, _ = invoke(["rank", "--json", anti_file])
    assert code == 0 and json.loads(out) == first


# hieroglyph pipeline ---------------------------------------------------------------


def test_hiero_overlap_inline():
    code, out, _ = invoke(["hiero", "overlap", "abab"])
    assert (code, out) == (0, "01\n10\n")
    code, payload = invoke_json(["hiero", "overlap", "abab"])
    assert code == 0
    assert BASE_KEYS <= payload.keys()
    assert payload["alphabet"] == ["a", "b"]
    assert payload["matrix"] == "01\n10\n"


def test_hiero_overlap_from_file_and_stdin(tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("abab\n")
    code, out, _ = invoke(["hiero", "overlap", str(path)])
    assert (code, out) == (0, "01\n10\n")
    code, out, _ = invoke(["hiero", "overlap", "-"], stdin_text="abab\n")
    assert (code, out) == (0, "01\n10\n")


@pytest.mark.parametrize("via", ["file", "stdin"])
def test_hiero_overlap_bytes_match_the_matrix_route(tmp_path, via):
    # the rows written mirrored give the bytes of rendering the overlap matrix
    word = [f"t{i}" for i in range(1000)] * 2
    random.Random(1).shuffle(word)
    text = " ".join(word) + "\n"
    h = parse_hieroglyph(text)
    m = overlap_matrix(h)
    fields = {"alphabet": list(h.alphabet), "matrix": _Escaped(render_matrix(m, newline="\\n"))}
    expected_json = "".join(_json_parts(_payload("hiero-overlap", h.n, **fields)))
    path = tmp_path / "word1000.txt"
    path.write_text(text)
    arg, stdin_text = (str(path), None) if via == "file" else ("-", text)
    assert invoke(["hiero", "overlap", arg], stdin_text) == (0, render_matrix(m), "")
    assert invoke(["hiero", "overlap", arg, "--json"], stdin_text) == (0, expected_json, "")


def test_hiero_decide():
    code, payload = invoke_json(["hiero", "decide", "--k", "1", "abab"])
    assert code == 0
    assert payload["answer"] == "yes"
    assert payload["twist_witness"] == payload["witness_diagonal"] == "11"
    assert payload["alphabet"] == ["a", "b"]
    code, payload = invoke_json(["hiero", "decide", "--k", "0", "abab"])
    assert code == 1
    assert payload["answer"] == "no" and payload["twist_witness"] is None


def test_hiero_approx():
    code, payload = invoke_json(["hiero", "approx", "aabb"])
    assert code == 0
    assert payload["rank_bounds"] == {"lower": 0, "upper": 0}
    assert payload["twist_witness"] == "00"


def test_word_payload_key_order():
    # word subcommands are the matrix ones plus the alphabet (and twist_witness)
    base = ["command", "n", "k", "answer", "rank_bounds", "witness_diagonal", "achieved_rank"]
    for argv, extra in (
        (["hiero", "overlap", "abab"], ["alphabet", "matrix"]),
        (["hiero", "decide", "--k", "1", "abab"], ["alphabet", "twist_witness"]),
        (["hiero", "decide", "--k", "0", "abab"], ["alphabet", "twist_witness"]),
        (["hiero", "approx", "abab"], ["alphabet", "twist_witness"]),
        (["hiero", "canon", "abab"], ["alphabet", "canonical"]),
    ):
        _, payload = invoke_json(argv)
        assert list(payload) == base + extra, argv
        assert payload["command"] == f"hiero-{argv[1]}"


def test_word_file_is_read_as_utf8(tmp_path):
    path = tmp_path / "word.txt"
    path.write_text("αβαβ\n", encoding="utf-8")
    assert invoke(["hiero", "overlap", str(path)]) == invoke(["hiero", "overlap", "αβαβ"])
    code, payload = invoke_json(["hiero", "overlap", str(path)])
    assert code == 0
    assert payload["alphabet"] == ["α", "β"] and payload["matrix"] == "01\n10\n"


def test_non_ascii_matrix_file_is_format_error(tmp_path):
    path = tmp_path / "greek.txt"
    path.write_text("0α\n10\n", encoding="utf-8")
    code, _, err = invoke(["rank", str(path)])
    assert code == 2 and err.startswith("format error:")
    path.write_bytes(b"0\xff\n10\n")  # not UTF-8 at all
    code, _, err = invoke(["rank", str(path)])
    assert code == 2 and err.startswith("format error:")


def test_hiero_canon():
    code, out, _ = invoke(["hiero", "canon", "baba"])
    assert (code, out) == (0, "abab\n")
    code, payload = invoke_json(["hiero", "canon", "baba"])
    assert code == 0
    assert payload["canonical"] == "abab"
    assert payload["alphabet"] == ["a", "b"]


def write_word(tmp_path, n: int) -> str:
    path = tmp_path / f"word{n}.txt"
    path.write_text(" ".join(f"t{i} t{i}" for i in range(n)))
    return str(path)


@pytest.mark.parametrize("command", [["overlap"], ["decide", "--k", "1"], ["approx"]])
def test_word_overlap_commands_guard_dimension(tmp_path, command):
    # the overlap matrix costs n^2, so these follow gen's MAX_DIM rule
    code, out, err = invoke(["hiero", *command, write_word(tmp_path, 2049)])
    assert (code, out, err) == (2, "", "error: dimension 2049 outside 0..2048\n")


def test_word_dimension_guard_bounds(tmp_path):
    code, payload = invoke_json(["hiero", "overlap", write_word(tmp_path, 2048)])
    assert code == 0 and payload["n"] == 2048
    assert payload["matrix"] == ("0" * 2048 + "\n") * 2048
    code, payload = invoke_json(["hiero", "canon", write_word(tmp_path, 2049)])
    assert code == 0 and payload["n"] == 2049  # canon builds no matrix


# generation ---------------------------------------------------------------------------


def test_gen_is_reproducible():
    first = invoke(["gen", "--n", "8", "--density", "0.5", "--seed", "7"])
    second = invoke(["gen", "--n", "8", "--density", "0.5", "--seed", "7"])
    assert first == second and first[0] == 0
    m = parse_matrix(first[1])
    assert m.n == 8 and m.diagonal().weight() == 0


def test_gen_density_extremes():
    code, out, _ = invoke(["gen", "--n", "4", "--density", "0", "--seed", "1"])
    assert code == 0 and parse_matrix(out).rows == (0, 0, 0, 0)
    code, out, _ = invoke(["gen", "--n", "4", "--density", "1", "--seed", "1"])
    m = parse_matrix(out)
    assert all(
        m.entry(i, j) == (0 if i == j else 1) for i in range(4) for j in range(4)
    )


def test_gen_json_echoes_parameters():
    code, payload = invoke_json(["gen", "--n", "3", "--density", "0.25", "--seed", "9"])
    assert code == 0
    assert payload["command"] == "gen" and payload["n"] == 3
    assert payload["density"] == 0.25 and payload["seed"] == 9
    assert parse_matrix(payload["matrix"]).n == 3


def test_gen_dimension_guard():
    code, out, err = invoke(["gen", "--n", "100000"])
    assert (code, out) == (2, "") and err.startswith("error:")
    code, _, err = invoke(["gen", "--n", "-1"])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "3", "--seed", "-1"],
        ["gen", "--n", "3", "--seed", str(2**64 + 1)],
        ["bench", "--algo", "rank", "--sizes", "4", "--seed", str(2**64 - 1)],
        ["bench", "--algo", "rank", "--sizes", "4", "--seed", "-1"],
        # seed + 4 fits, seed + 5 does not
        ["bench", "--algo", "rank", "--sizes", "4,5", "--seed", str(2**64 - 5)],
    ],
)
def test_seed_outside_64_bits_is_an_error(argv):
    code, out, err = invoke(argv)
    assert (code, out) == (2, "") and err.startswith("error:")
    assert f"seed {argv[argv.index('--seed') + 1]} " in err  # the seed as given


def test_gen_pipes_into_rank():
    code, out, _ = invoke(["gen", "--n", "4", "--density", "1", "--seed", "0"])
    assert code == 0
    code, out, _ = invoke(["rank", "-"], stdin_text=out)
    assert (code, out) == (0, "4\n")


# bench ----------------------------------------------------------------------------------


def test_bench_csv_shape():
    code, out, _ = invoke(
        ["bench", "--algo", "rank", "--sizes", "4,8", "--reps", "1", "--seed", "0"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "algo,n,reps,median_seconds"
    assert len(lines) == 3
    assert lines[1].startswith("rank,4,1,") and lines[2].startswith("rank,8,1,")


def test_bench_documented_size_sweeps():
    code, out, _ = invoke(
        ["bench", "--algo", "decide", "--sizes", "16,32,64", "--k", "1", "--reps", "1"]
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4  # header + 3 rows
    code, out, _ = invoke(
        ["bench", "--algo", "approx", "--sizes", "64,128,256", "--reps", "1"]
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_bench_json_rows():
    code, out, _ = invoke(
        ["bench", "--algo", "decide", "--sizes", "4", "--k", "1", "--reps", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    (row,) = payload["rows"]
    assert row["algo"] == "decide" and row["n"] == 4 and row["reps"] == 2
    assert row["median_seconds"] >= 0


def test_run_bench_validates(monkeypatch):
    with pytest.raises(ValueError):
        run_bench("rank", [4], 1, 0, 0)
    with pytest.raises(ValueError):
        run_bench("rank", [-1], 1, 1, 0)
    with pytest.raises(ValueError):
        run_bench("rank", [5000], 1, 1, 0)
    with pytest.raises(ValueError):
        run_bench("nope", [4], 1, 1, 0)
    with pytest.raises(ValueError, match="seed -1 "):
        run_bench("rank", [], 1, 1, -1)
    timed = []
    monkeypatch.setitem(diagrank.cli._BENCH_OPS, "rank", lambda m, k: timed.append(m.n))
    with pytest.raises(ValueError, match=f"seed {2**64 - 5} "):
        run_bench("rank", [4, 5], 1, 1, 2**64 - 5)
    assert timed == []  # every seed is checked before the first size is timed


def test_run_bench_checks_the_oracle_guard_before_timing(monkeypatch):
    timed = []
    monkeypatch.setitem(diagrank.cli._BENCH_OPS, "oracle", lambda m, k: timed.append(m.n))
    with pytest.raises(diagrank.rankmin.OracleSizeError, match="n <= 24, got 25$"):
        run_bench("oracle", [4, 22, 25], 1, 3, 0)
    code, out, err = invoke(["bench", "--algo", "oracle", "--sizes", "4,25"])
    assert (code, out) == (2, "")
    assert err == "guard error: oracle limited to n <= 24, got 25\n"
    assert timed == []
    assert run_bench("oracle", [4, 24], 1, 1, 0)[1]["n"] == 24
    assert timed == [4, 24]


# error reporting ----------------------------------------------------------------------


def test_missing_file_is_input_error():
    code, out, err = invoke(["rank", "/nonexistent/matrix.txt"])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


@pytest.mark.parametrize("command", (["overlap"], ["canon"], ["decide", "--k", "1"]))
def test_directory_word_is_input_error(tmp_path, command):
    code, out, err = invoke(["hiero", *command, str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_mistyped_word_path_is_input_error():
    code, out, err = invoke(["hiero", "overlap", "/nonexistent/x"])
    assert code == 2 and out == ""
    assert err == "input error: [Errno 2] No such file or directory: '/nonexistent/x'\n"
    # a word that parses is a word, separators included
    code, out, _ = invoke(["hiero", "overlap", "a/a/"])
    assert code == 0 and out == "01\n10\n"


def test_malformed_matrix_is_format_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("01\n1\n")
    code, _, err = invoke(["rank", str(path)])
    assert code == 2 and err.startswith("format error:")


def test_malformed_word_is_format_error():
    code, _, err = invoke(["hiero", "overlap", "aba"])
    assert code == 2 and err.startswith("format error:")


def test_oracle_guard_error(tmp_path):
    from diagrank.gf2 import render_matrix

    path = tmp_path / "big.txt"
    path.write_text(render_matrix(gen_random(25, 0.5, 0)))
    code, _, err = invoke(["oracle", str(path)])
    assert code == 2 and err.startswith("guard error:")


@pytest.mark.parametrize("flags", ([], ["--json"]))
def test_too_deep_a_search_is_a_guard_error(monkeypatch, anti_file, flags):
    def too_deep(m, k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(diagrank.rankmin, "min_rank_decide", too_deep)
    code, out, err = invoke(["decide", "--k", "1", anti_file, *flags])
    assert (code, out) == (2, "")
    assert err == "guard error: search deeper than the recursion limit\n"  # no traceback


def test_value_errors_exit_2(anti_file):
    code, _, err = invoke(["decide", "--k", "-1", anti_file])
    assert code == 2 and err.startswith("error:")
    code, _, err = invoke(["gen", "--n", "3", "--density", "1.5"])
    assert code == 2 and err.startswith("error:")
    code, _, err = invoke(["bench", "--algo", "rank", "--sizes", "4", "--reps", "0"])
    assert code == 2 and err.startswith("error:")


def test_usage_errors_exit_2(anti_file):
    for argv in ([], ["decide", anti_file], ["bench", "--algo", "bogus", "--sizes", "4"]):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                main(argv)
        assert exc.value.code == 2


# help pages ----------------------------------------------------------------------------


def help_text(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out):
            main(argv + ["--help"])
    assert exc.value.code == 0
    return out.getvalue()


def listed_subcommands(text, names):
    rows = [line.split(None, 1) for line in text.splitlines()]
    return [(row[0], row[1]) for row in rows if len(row) == 2 and row[0] in names]


def test_top_level_help_lists_subcommands(monkeypatch):
    subcommands = [
        ("rank", "rank of a matrix"),
        ("complete", "rewrite the diagonal to reach full rank"),
        ("decide", "is some diagonal rewrite of rank <= k?"),
        ("approx", "factor-2 bracket on the minimum rank"),
        ("exact", "exact minimum rank, searching budgets 0..k-max"),
        ("oracle", "brute-force minimum over all 2^n diagonals"),
        ("upper-bound", "even-row-sum diagonal, rank <= n-1"),
        ("hiero", "double-occurrence word pipeline"),
        ("gen", "seeded random matrix with zero diagonal"),
        ("bench", "median wall times as CSV"),
    ]
    text = help_text([], monkeypatch)
    assert text.startswith("usage: diagrank ")
    assert listed_subcommands(text, dict(subcommands)) == subcommands
    hiero = [
        ("overlap", "interlacement matrix of the word"),
        ("decide", "realizable with at most k Möbius strips?"),
        ("approx", "factor-2 bracket on the strip count"),
        ("canon", "canonical form under rotation/reversal/relabeling"),
    ]
    text = help_text(["hiero"], monkeypatch)
    assert text.startswith("usage: diagrank hiero ")
    assert listed_subcommands(text, dict(hiero)) == hiero


@pytest.mark.parametrize(
    "argv, arguments",
    (
        (["decide"], ["file matrix file, or - for stdin", "--k K rank budget"]),
        (
            ["hiero", "decide"],
            ["word word, file containing one, or - for stdin", "--k K strip budget"],
        ),
        (
            ["bench"],
            [
                "--algo {approx,complete,decide,oracle,rank} operation to time",
                "--sizes SIZES comma-separated dimensions, e.g. 16,32,64",
                "--k K budget for decide timings",
                "--reps REPS repetitions per size",
                "--seed SEED instance seed",
            ],
        ),
    ),
)
def test_subcommand_help_lists_arguments(monkeypatch, argv, arguments):
    text = help_text(argv, monkeypatch)
    assert text.startswith(f"usage: diagrank {' '.join(argv)} ")
    flat = " ".join(text.split())  # help may sit on the argument's line or the next
    for argument in arguments + ["--json emit a JSON payload", "-h, --help"]:
        assert argument in flat, argument


# end-to-end agreement ---------------------------------------------------------------


def test_oracle_exact_decide_agree_on_generated_instances():
    for n in (4, 8, 12):
        for seed in (0, 1, 2):
            m = gen_random(n, 0.5, seed)
            value, _ = min_rank_oracle(m)
            exact_value, _ = min_rank_exact(m, n)
            assert exact_value == value
            for k in range(n + 1):
                assert min_rank_decide(m, k).is_yes == (k >= value)


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "diagrank", "rank", "-"],
        input="10\n01\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


@pytest.mark.parametrize(
    "n, head, extra",
    [
        pytest.param(2000, 10, [], id="2000-10"),
        pytest.param(3, 0, [], id="3-0"),
        pytest.param(2000, 10, ["--json"], id="2000-10-json"),
    ],
)
def test_closed_pipe_exits_2_without_traceback(n, head, extra):
    # n = 2000 writes ~4 MB, so the print, or the JSON writer, meets the
    # closed pipe; n = 3 fits in stdout's buffer, which meets it when flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "diagrank", "gen", "--n", str(n), "--seed", "1", *extra]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(head)) == head
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 2


def test_console_script_smoke(tmp_path):
    import shutil

    exe = shutil.which("diagrank")
    if exe is None:
        pytest.skip("console script not on PATH")
    path = tmp_path / "m.txt"
    path.write_text(ANTI_TEXT)
    proc = subprocess.run([exe, "oracle", str(path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "rank=1 witness=11\n"


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["diagrank"]
    assert target == "diagrank.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main

import errno
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from fuzzgen import gen_program
from tss import corpus
from tss.cli import main
from tss.corpus import CORPUS_DIR
from tss.instantiate import mangled_name
from tss.parser import MAX_NAT_DIGITS, MAX_NESTING, parse_program
from tss.printer import pretty_print


def run(*argv):
    return main(list(argv))


def test_check_ok(capsys):
    assert run("check", str(CORPUS_DIR / "copy_r.tss"), "--cost", "r") == 0
    assert "ok" in capsys.readouterr().out


def test_check_failure_exit_one(capsys):
    assert run("check", str(CORPUS_DIR / "plus1_bad_r.tss"), "--cost", "r") == 1


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.tss"
    bad.write_text("type t = +{")
    assert run("check", str(bad)) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("src, where, message", [
    # A superscript digit is a digit to `str.isdigit` but not to `int`.
    ("type t = ()^{²} 1\n", "1:14", "unexpected character '²'"),
    ("type t[n] = ()^{n} 1\ndecl f : . |- (x : t[²])\n", "2:22",
     "unexpected character '²'"),
    ("decl f[n] : . |- (x : 1)\nproc x <- f[²] = close x\n", "2:13",
     "unexpected character '²'"),
    # `int` refuses a decimal string beyond 4,300 digits.
    ("type t = ()^{" + "9" * 5000 + "} 1\n", "1:14",
     f"a natural may have at most {MAX_NAT_DIGITS} digits"),
    ("decl f[n] : . |- (x : 1)\nproc x <- f[n+" + "9" * 5000 + "] = close x\n",
     "2:15", f"a natural may have at most {MAX_NAT_DIGITS} digits")],
    ids=["count", "index", "pattern", "long count", "long offset"])
def test_a_malformed_natural_is_a_parse_error(tmp_path, capsys, src, where,
                                              message):
    bad = tmp_path / "bad.tss"
    bad.write_text(src)
    # An exception escaping `main` fails the test: that is a traceback.
    assert run("check", str(bad)) == 2
    assert capsys.readouterr().err == f"parse error: {where}: {message}\n"


def test_a_natural_of_the_longest_length_parses():
    digits = "9" * MAX_NAT_DIGITS
    assert parse_program(f"type t = ()^{{{digits}}} 1").type_body("t").count \
        == int(digits)


def test_subtype_true(capsys):
    assert run("subtype", "[]1", "()[]1") == 0
    assert capsys.readouterr().out.strip().splitlines()[0] == "true"


def test_subtype_false(capsys):
    assert run("subtype", "()[]1", "[]1") == 1
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("left, right, name", [
    ("X", "1", "type name 'X'"),
    ("1", "+{a : ()X}", "type name 'X'"),
    ("()^{n+1} 1", "()^n 1", "index variable 'n'"),
    ("[]1", "list[k]", "type name 'list'")])
def test_subtype_operands_must_be_closed(capsys, left, right, name):
    assert run("subtype", left, right) == 2
    err = capsys.readouterr().err
    assert name in err and "closed types" in err
    assert "Traceback" not in err


FREE_N = """
decl f : . |- (x : ()^n 1)
proc x <- f = close x
"""


@pytest.mark.parametrize("argv, status, stream, text", [
    (["check"], 1, "err", "error: unbound parameter 'n'\n"),
    (["check", "--def", "f"], 1, "err", "error: unbound parameter 'n'\n"),
    (["reconstruct"], 1, "err", "error: unbound parameter 'n'\n"),
    (["check", "--bind", "n=2"], 0, "out", "ok: 1 definition(s) check\n"),
    (["reconstruct", "--bind", "n=2"], 0, "out", "delay{2}")])
def test_free_index_variable_is_grounded_by_the_binding(
        tmp_path, capsys, argv, status, stream, text):
    f = tmp_path / "free_n.tss"
    f.write_text(FREE_N)
    assert run(argv[0], str(f), *argv[1:]) == status
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)
    assert "Traceback" not in captured.err


# A second body of an index-free process, after a second index-free type:
# every stage after the parser would read only the first clause of each.
TWICE = """
type a = 1
type a = ()1
decl f : . |- (x : a)
proc x <- f = close x
proc x <- f = delay{1} ; close x
"""


def test_a_second_index_free_definition_is_a_scope_error(tmp_path, capsys):
    src = tmp_path / "twice.tss"
    src.write_text(TWICE)
    for cmd in ("check", "reconstruct"):
        assert run(cmd, str(src)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: 3:1: second type definition of 'a' "
                       "(the first is at 2:1)\n")


def test_run_six_trace(capsys):
    assert run("run", str(CORPUS_DIR / "six_r.tss"), "--main", "six",
               "--cost", "r", "--trace", "-", "--check-config") == 0
    out = capsys.readouterr().out
    assert "t=4: close" in out
    assert "defC" in out


def test_run_writes_both_traces_a_step_at_a_time(tmp_path, capsys):
    # To one stream or one file the two traces interleave, one text line and
    # one JSON line per step; to two files each gets its own lines.
    six = str(CORPUS_DIR / "six_r.tss")
    text, jsonl = tmp_path / "six.txt", tmp_path / "six.jsonl"
    assert run("run", six, "--main", "six", "--cost", "r",
               "--trace", str(text), "--trace-json", str(jsonl)) == 0
    status = capsys.readouterr().out
    assert run("run", six, "--main", "six", "--cost", "r",
               "--trace", "-", "--trace-json", "-") == 0
    out = capsys.readouterr().out
    lines = text.read_text().splitlines()
    assert len(lines) == 11
    assert status.startswith("quiescent after 11 steps\n")
    assert out == "".join(f"{t}\n{j}\n" for t, j in zip(
        lines, jsonl.read_text().splitlines())) + status
    assert run("run", six, "--main", "six", "--cost", "r",
               "--trace", str(text), "--trace-json", str(text)) == 0
    assert text.read_text() + capsys.readouterr().out == out


def test_a_failed_run_leaves_its_trace(tmp_path, capsys):
    # The steps a run takes before a fault are written as it takes them.
    src = tmp_path / "nodef.tss"
    src.write_text("decl g : . |- (y : 1)\ndecl f : . |- (x : 1)\n"
                   "proc x <- f = y <- g ; wait y ; close x\n")
    assert run("run", str(src), "--main", "f", "--trace", "-") == 1
    out, err = capsys.readouterr()
    assert out == ("defC: proc(c0, 0, c0 <- f) -> proc(c0, 0, c0 <- c1), "
                   "proc(c1, 0, y <- g ; wait y ; close c1)\n")
    assert err == "error: 3:15: process 'g' has no definition\n"


def test_run_with_binding(capsys):
    assert run("run", str(CORPUS_DIR / "tree_rs.tss"), "--main", "tmain",
               "--bind", "h=1", "--cost", "rs") == 0
    assert "t=8: label b0" in capsys.readouterr().out


@pytest.mark.parametrize("steps, status, out", [
    ("-5", 2, ""), ("-1", 2, ""), ("x", 2, ""), ("0", 0, "budget\n")])
def test_run_step_budget_must_not_be_negative(capsys, steps, status, out):
    assert run("run", str(CORPUS_DIR / "queue_rs.tss"), "--main", "qmain",
               "--bind", "n=2", "--cost", "rs", "--steps", steps) == status
    captured = capsys.readouterr()
    assert captured.out == out
    if status == 2:
        assert "argument --steps: " in captured.err
        assert "Traceback" not in captured.err


def test_reconstruct_to_file(tmp_path, capsys):
    out = tmp_path / "six.explicit.tss"
    assert run("reconstruct", str(CORPUS_DIR / "six_r.tss"), "--cost", "r",
               "-o", str(out)) == 0
    text = out.read_text()
    assert text.count("delay ;") == 4
    # The explicit output checks without another reconstruction pass.
    assert run("check", str(out), "--cost", "free", "--explicit") == 0


def test_instantiate_writes_ground_defs(capsys):
    assert run("instantiate", str(CORPUS_DIR / "append_rs.tss"),
               "--def", "append", "--bind", "n=1,k=0,r=0") == 0
    out = capsys.readouterr().out
    assert "append$1$0" in out and "list$0" in out


def test_pipeline_is_deterministic(capsys):
    run("run", str(CORPUS_DIR / "counter_r.tss"), "--main", "main",
        "--cost", "r", "--sched", "rand", "--seed", "9", "--trace", "-")
    first = capsys.readouterr().out
    run("run", str(CORPUS_DIR / "counter_r.tss"), "--main", "main",
        "--cost", "r", "--sched", "rand", "--seed", "9", "--trace", "-")
    assert capsys.readouterr().out == first


def test_parameterized_file_checks_its_ground_subset(capsys):
    # Without a binding only the parameter-free definitions are grounded.
    assert run("check", str(CORPUS_DIR / "append_rs.tss"), "--cost", "rs") == 0
    assert "1 definition" in capsys.readouterr().out


def test_missing_binding_is_reported(capsys):
    assert run("check", str(CORPUS_DIR / "append_rs.tss"), "--cost", "rs",
               "--def", "append") == 1
    assert "no binding" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["run", "check"])
@pytest.mark.parametrize("bind", ["h=x", "h", "=3", "h=3,h=2"])
def test_malformed_binding_is_a_usage_error(capsys, cmd, bind):
    argv = [cmd, str(CORPUS_DIR / "tree_rs.tss"), "--bind", bind]
    assert run(*argv, *(["--main", "tmain"] if cmd == "run" else [])) == 2
    err = capsys.readouterr().err
    # The message names the offending item: for a repeated name, the last.
    assert f"malformed binding {bind.split(',')[-1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, path", [
    (["check", "nosuchfile.tss"], "nosuchfile.tss"),
    (["reconstruct", str(CORPUS_DIR / "six_r.tss"), "-o", "no/dir/x"],
     "no/dir/x")], ids=["input", "output"])
def test_missing_file_is_reported(tmp_path, monkeypatch, capsys, argv, path):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: {os.strerror(errno.ENOENT)}\n"


def test_non_utf8_input_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.tss"
    bad.write_bytes(b"\xff\xfe bad")
    assert run("check", str(bad)) == 2
    assert capsys.readouterr().err == \
        f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("argv, status", [
    (["check", "copy_r.tss", "--cost", "r"], 0),
    (["check", "plus1_bad_r.tss", "--cost", "r"], 1),
    (["run", "tree_rs.tss", "--main", "tmain", "--bind", "h=x"], 2)])
def test_python_m_tss_exit_status(argv, status):
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parents[1])}
    argv = [str(CORPUS_DIR / a) if a.endswith(".tss") else a for a in argv]
    done = subprocess.run([sys.executable, "-m", "tss", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == status, done.stderr
    assert "Traceback" not in done.stderr


def test_corpus_filter(capsys):
    assert run("corpus", "--filter", "six") == 0
    out = capsys.readouterr().out
    assert "six-trace" in out and "fold" not in out


def test_corpus_filter_that_matches_nothing_is_a_usage_error(capsys):
    assert run("corpus", "--filter", "zzz") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --filter 'zzz' matches no criterion\n"


def test_corpus_exit_status_treats_criterion_7_as_strict_xfail(capsys,
                                                               monkeypatch):
    from tss import acceptance
    # Criterion 7 runs as stated, prints its detail, and fails as expected.
    assert run("corpus", "--filter", "fold at") == 0
    out = capsys.readouterr().out
    assert "[xfail]  7 fold at" in out and "no elaboration" in out
    # An unexpected pass of criterion 7 is a failure.
    seven = next(c for c in acceptance.CRITERIA if c.number == 7)
    monkeypatch.setattr(seven, "fn", lambda: (True, "bound met"))
    assert run("corpus", "--filter", "fold at") == 1
    assert "[XPASS]" in capsys.readouterr().out
    # Any other failing criterion still fails the command.
    one = next(c for c in acceptance.CRITERIA if c.number == 1)
    monkeypatch.setattr(one, "fn", lambda: (False, "broken"))
    assert run("corpus", "--filter", "six") == 1
    assert "[FAIL]" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The nesting bound: deep input ends in a parse error, never a traceback

def deep_type(depth):
    """A type nested `depth` levels deep, and a body walking all of it."""
    t = "1"
    for _ in range(depth):
        t = f"+{{ a : {t} }}"
    return (f"type t = {t}\ndecl main : . |- (x : t)\n"
            f"proc x <- main = {'x.a ; ' * depth}close x\n")


def long_body(actions):
    """A straight-line body of `actions` sends and a close."""
    return ("type bits = +{ b0 : ()bits, $ : ()1 }\n"
            "decl main : . |- (x : bits)\n"
            f"proc x <- main = {'x.b0 ; ' * (actions - 1)}x.$ ; close x\n")


def deep_delay(count):
    """A delay whose count is the index expression `count`."""
    return (f"type t[n] = ()^{{{count}}} 1\ndecl main : . |- (x : t[1])\n"
            "proc x <- main = close x\n")


@pytest.mark.parametrize("src", [deep_type(200), long_body(300),
                                 deep_type(MAX_NESTING + 1),
                                 long_body(MAX_NESTING + 1),
                                 deep_delay("(" * 400 + "n" + ")" * 400),
                                 deep_delay("+".join(["n"] * 1200)),
                                 deep_delay("*".join(["n"] * 1200))],
                         ids=["type", "body", "type-over", "body-over",
                              "index-parens", "index-sum", "index-product"])
def test_deep_input_is_a_parse_error(tmp_path, capsys, src):
    f = tmp_path / "deep.tss"
    f.write_text(src)
    assert run("check", str(f), "--cost", "r") == 2
    err = capsys.readouterr().err
    assert f"at most {MAX_NESTING} levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("src", [deep_type(MAX_NESTING),
                                 long_body(MAX_NESTING)],
                         ids=["type", "body"])
def test_input_at_the_nesting_bound_checks_and_runs(tmp_path, capsys, src):
    f = tmp_path / "deep.tss"
    f.write_text(src)
    assert run("check", str(f), "--cost", "r") == 0
    assert run("run", str(f), "--main", "main", "--cost", "r",
               "--check-config") == 0
    assert "quiescent" in capsys.readouterr().out


def test_corpus_and_generated_programs_parse_within_the_bound():
    for f in sorted(CORPUS_DIR.glob("*.tss")):
        parse_program(f.read_text())
    for seed in range(60):
        sig = gen_program(seed)
        assert parse_program(pretty_print(sig)) == sig


def test_huge_delays_check_without_a_traceback(tmp_path, capsys):
    huge = tmp_path / "huge.tss"
    huge.write_text("decl f : . |- (x : ()^{1000000000} 1)\n"
                    "proc x <- f = close x\n")
    assert run("check", str(huge)) == 0
    long_bridge = tmp_path / "bridge.tss"
    long_bridge.write_text("decl g : . |- (x : 1)\nproc x <- g = close x\n"
                           "decl f : . |- (x : ()^{200000} 1)\n"
                           "proc x <- f = x <- g\n")
    assert run("check", str(long_bridge)) == 0
    assert run("reconstruct", str(long_bridge)) == 0
    out, err = capsys.readouterr()
    assert "delay{200000} ;  % reconstructed\n  x <- g\n" in out
    assert err == ""


def test_long_modal_delay_runs_check_without_a_traceback(tmp_path, capsys):
    # The forward from `[]1` to `()^{400} []1` needs a `[]()` run of 400.
    prog = tmp_path / "run.tss"
    prog.write_text("decl g : (y : ()^{400} []1) |- (x : ()^{400} 1)\n"
                    "proc x <- g <- y = wait y ; close x\n"
                    "decl f : (y : []1) |- (x : ()^{400} 1)\n"
                    "proc x <- f <- y = x <- g <- y\n")
    assert run("check", str(prog)) == 0
    assert run("subtype", "[]1", "()^{400} []1") == 0
    assert run("subtype", "()^{400} <>1", "<>1") == 0
    assert run("subtype", "[]1", "()^{200000} []1") == 1
    out, err = capsys.readouterr()
    assert out == "ok: 2 definition(s) check\ntrue\ntrue\n"
    assert err == "error: subtyping budget exceeded\n"


EVENTUALLY_LOOP = """
type dl = ()^2 <>dl
decl f : (y : dl) |- (x : ()^{4} <>1)
proc x <- f <- y = x <- y
"""


@pytest.mark.parametrize("cost", [[], ["--cost", "r"]], ids=["free", "r"])
def test_an_eventually_loop_fails_to_reconstruct_without_a_traceback(
        tmp_path, capsys, cost):
    # After a when? and two delays the goal `y : <>dl` meets itself again
    # on its search path, which fails it, as `is_subtype` fails it.
    prog = tmp_path / "dl.tss"
    prog.write_text(EVENTUALLY_LOOP)
    assert run("check", str(prog), *cost) == 1
    err = capsys.readouterr().err
    assert "no temporal elaboration exists" in err
    assert "Traceback" not in err


DEEP_EQUAL = """
type t[n+1] = +{ a : t[n] }
type t[0] = 1
type u[n+1] = +{ a : u[n] }
type u[0] = 1
decl f[n] : (y : t[n]) |- (x : u[n])
proc x <- f[n] <- y = x <- y
"""


@pytest.mark.parametrize("n", [200, 2000, 4000])
@pytest.mark.parametrize("mode", [[], ["--explicit"]],
                         ids=["reconstructed", "explicit"])
def test_deep_equal_families_check_without_a_traceback(tmp_path, capsys, n,
                                                       mode):
    # The forward needs t[n] = u[n], a bisimulation n goals deep.
    prog = tmp_path / "deep.tss"
    prog.write_text(DEEP_EQUAL)
    assert run("check", str(prog), "--def", "f", "--bind", f"n={n}",
               *mode) == 0
    assert capsys.readouterr() == ("ok: 1 definition(s) check\n", "")


# ---------------------------------------------------------------------------
# `tss run` ends in an exit status, never a traceback

HUGE_DELAYS = """
type t[n] = ()^{n} 1
decl f[n] : . |- (x : t[n])
proc x <- f[n] = close x
decl g : . |- (x : ()^{1000000000} 1)
proc x <- g = close x
"""


@pytest.mark.parametrize("file, argv", [
    ("tree_rs.tss", ["--main", "tmain", "--bind", "h=-1"]),
    ("tree_rs.tss", ["--main", "tmain", "--bind", "h=-99999999999999999999"]),
    ("tree_rs.tss", ["--main", "tmain", "--bind", "h=abc"]),
    ("tree_rs.tss", ["--main", "tmain", "--bind", "h=1.5"]),
    ("tree_rs.tss", ["--main", "tmain", "--bind", "zz=3"]),
    ("tree_rs.tss", ["--main", "tmain", "--bind", "h=1,zz=2"]),
    ("queue_rs.tss", ["--main", "qmain", "--bind", "n=-3"]),
    ("queue_rs.tss", ["--main", "qmain", "--bind", "n="]),
    ("huge", ["--main", "g", "--steps", "5", "--check-config"]),
    ("huge", ["--main", "f", "--bind", "n=1000000000", "--steps", "5"]),
    ("huge", ["--main", "f", "--bind", "n=99999999999999999999999",
              "--steps", "3", "--check-config", "--trace", "-"]),
    ("huge", ["--main", "f", "--bind", "n=-4", "--steps", "5"])])
def test_run_ends_without_a_traceback(tmp_path, capsys, file, argv):
    if file == "huge":
        path = tmp_path / "huge.tss"
        path.write_text(HUGE_DELAYS)
    else:
        path = CORPUS_DIR / file
    # An exception escaping `main` fails the test: that is a traceback.
    assert run("run", str(path), "--cost", "rs", *argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Binding errors: a negative binding and a name no definition uses

NEGATIVE_DELAY = """
type t[n] = ()^{n} 1
decl f[n] : . |- (x : t[n])
proc x <- f[n] = close x
decl g[n] : . |- (x : ()^{n+4} 1)
proc x <- g[n] = delay{n} ; delay{4} ; close x
type u[n] = +{ a : 1 }
decl h[n] : . |- (x : u[n])
proc x <- h[n] = x.a ; close x
"""


@pytest.mark.parametrize("cmd, flag", [
    ("check", "--def"), ("run", "--main"), ("reconstruct", "--def")])
# A delay count in a type and in a process, and a type name's index.
@pytest.mark.parametrize("root", ["f", "g", "h"])
def test_a_negative_delay_count_is_an_error(tmp_path, capsys, cmd, flag, root):
    # `()^-4 1` and `u$-4` would not parse back, and a run would run the
    # former as `1`.
    path = tmp_path / "negative.tss"
    path.write_text(NEGATIVE_DELAY)
    assert run(cmd, str(path), flag, root, "--bind", "n=-4") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: negative binding n=-4; an index must be at least 0\n"


@pytest.mark.parametrize("argv", [
    ["run", "tree_rs.tss", "--main", "tmain", "--bind", "h=1,zz=2"],
    ["check", "tree_rs.tss", "--def", "tmain", "--bind", "zz=2,h=1"],
    ["check", "append_rs.tss", "--def", "amain", "--bind", "n=1,k=1,r=0,zz=2"],
    ["check", "six_r.tss", "--bind", "zz=2"],
    ["reconstruct", "tree_rs.tss", "--bind", "zz=2"],
    ["instantiate", "tree_rs.tss", "--def", "tmain", "--bind", "h=1,zz=2"]])
def test_a_binding_no_definition_uses_is_an_error(capsys, argv):
    # A misspelt name next to the right one; `r` of append_rs is read free
    # by its definitions, so it counts as used.
    argv = [str(CORPUS_DIR / a) if a.endswith(".tss") else a for a in argv]
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: binding for unused parameter(s) zz\n"


# ---------------------------------------------------------------------------
# `tss check` ends in an exit status, never a traceback

def _mutants(text):
    """A fixed list of damaged copies of `text`: truncations, deleted spans
    and lines, and inserted punctuation, at positions spread over the text.
    Cuts at line ends mostly parse, so they reach the later stages."""
    n, lines = len(text), text.splitlines(keepends=True)
    m = len(lines)
    out = [text[:n * k // 4] for k in (1, 2, 3)]
    out += ["".join(lines[:m * k // 3]) for k in (1, 2)]
    out += [text[:n * k // 5] + text[n * k // 5 + 9:] for k in (1, 2, 3, 4)]
    out += ["".join(lines[:i] + lines[i + 1:]) for i in (m // 4, m // 2, -2)]
    out += [text[:n * k // 6] + mark + text[n * k // 6:]
            for k, mark in zip((1, 2, 3, 4, 5), "(;}:,")]
    return out


@pytest.mark.parametrize("file", ["six_r.tss", "copy_r.tss", "counter_r.tss",
                                  "queue_rs.tss"])
def test_damaged_files_check_without_a_traceback(tmp_path, capsys, file):
    path = tmp_path / file
    for i, text in enumerate(_mutants((CORPUS_DIR / file).read_text())):
        path.write_text(text)
        for cost in ("free", "r", "rs"):
            # An exception escaping `main` fails the test: a traceback.
            assert run("check", str(path), "--cost", cost) in (0, 1, 2), \
                (i, cost)
    assert "Traceback" not in capsys.readouterr().err


UNSOUND_CALL = """\
decl g : (y : <>1) |- (x : <>1)
proc x <- g <- y = x <- y
decl k : . |- (y : 1)
proc y <- k = close y
decl main : . |- (x : <>1)
proc x <- main = y <- k ; x <- g <- y
"""


@pytest.mark.parametrize("mode", [[], ["--explicit"]],
                         ids=["reconstructed", "explicit"])
def test_a_call_argument_must_be_a_weak_subtype(tmp_path, capsys, mode):
    # `1 <: <>1` holds, but a run moves the argument's consumer side to the
    # declared `<>1`, a gap beyond weak subtyping that the configuration
    # check rejects: a call site checked by subtyping would accept a program
    # whose run is then ill typed.
    src = tmp_path / "unsound.tss"
    src.write_text(UNSOUND_CALL)
    assert run("check", str(src), *mode) == 1
    assert "6:27 [def] argument y does not match parameter y of g " \
        "(expected <>1, found 1)\n" in capsys.readouterr().err


def _outcome(*argv):
    """`main(argv)` in process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}:{s.bind}")
def test_the_printed_elaboration_runs_as_its_source(tmp_path, spec):
    # `--explicit` checks a reconstructed program by the rules its source
    # went through, so the printed elaboration loads, checks and runs (every
    # configuration checked) exactly as the source does.
    file = str(CORPUS_DIR / spec.file)
    bind = ["--bind", ",".join(f"{k}={v}" for k, v in spec.bind.items())] \
        if spec.bind else []
    status, text, _ = _outcome("reconstruct", file, "--def", spec.main, *bind,
                               "--cost", spec.cost, "-o", "-")
    assert status == 0
    elab = tmp_path / "elab.tss"
    elab.write_text(text)
    main_ = mangled_name(corpus.parse(spec.file), spec.main, spec.bind)
    for sched, seed in (("rr", "0"), ("rand", "1"), ("sync", "0")):
        common = ["--sched", sched, "--seed", seed, "--steps",
                  str(spec.steps), "--check-config", "--trace", "-"]
        assert _outcome("run", str(elab), "--main", main_, "--explicit",
                        *common) == \
            _outcome("run", file, "--main", spec.main, *bind, "--cost",
                     spec.cost, *common), sched

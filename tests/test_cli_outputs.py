"""Every CLI output on the corpus, pinned: one SHA-256 of (argv, exit
status, stdout, stderr) per invocation of `cli.main`, run in process, in a
committed table (`cli_outputs.json`).  A change that claims byte-identical
output leaves the table as it is.

It covers `tss run` on every corpus run spec under rr, rand 1, rand 7 and
sync, with and without `--check-config`, each writing both traces to
stdout; `tss check` and `tss reconstruct -o -` on every check spec, and
`tss check --explicit` on each reconstructed output; and `tss corpus`,
with its timings masked.  Corpus files appear in argv by their bare name.

    PYTHONPATH=src python tests/test_cli_outputs.py   # rewrite the table

Rewriting prints each invocation whose digest it adds, drops or changes,
so the rewrite shows what a change moved.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tss import corpus
from tss.cli import main

TABLE = Path(__file__).parent / "cli_outputs.json"
SCHEDULES = (("rr", 0), ("rand", 1), ("rand", 7), ("sync", 0))


def _invoke(argv, shown=None, tmp=None):
    """`main(argv)` in process: (key, digest, stdout).  The key is argv as
    shown, with a corpus file by its bare name and `shown` in place of a
    file under `tmp`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    for path, name in ((tmp, shown), (f"{corpus.CORPUS_DIR}/", "")):
        if path is not None:
            argv = [a.replace(str(path), name) for a in argv]
            stdout = stdout.replace(str(path), name)
            stderr = stderr.replace(str(path), name)
    key = " ".join(argv)
    record = json.dumps([argv, status, stdout, stderr])
    return key, hashlib.sha256(record.encode()).hexdigest(), stdout


def _bind(bind):
    return ["--bind", ",".join(f"{k}={v}" for k, v in bind.items())] \
        if bind else []


def run_outputs():
    table = {}
    for s in corpus.run_specs():
        file = str(corpus.CORPUS_DIR / s.file)
        for sched, seed in SCHEDULES:
            for check in ([], ["--check-config"]):
                key, digest, _ = _invoke(
                    ["run", file, "--main", s.main, *_bind(s.bind), "--cost",
                     s.cost, "--sched", sched, "--seed", str(seed), "--steps",
                     str(s.steps), *check, "--trace", "-", "--trace-json",
                     "-"])
                table[key] = digest
    return table


def check_outputs(tmp):
    table = {}
    for s in corpus.check_specs():
        file = str(corpus.CORPUS_DIR / s.file)
        args = [file, "--def", s.root, *_bind(s.bind), "--cost", s.cost]
        key, digest, _ = _invoke(["check", *args])
        table[key] = digest
        key, digest, text = _invoke(["reconstruct", *args, "-o", "-"])
        table[key] = digest
        if s.expect == "ok":
            elab = tmp / "elab.tss"
            elab.write_text(text)
            key, digest, _ = _invoke(["check", str(elab), "--explicit"],
                                     f"[{key}]", elab)
            table[key] = digest
    return table


def corpus_output():
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["corpus"])
    text = re.sub(r"\(\d+\.\ds\)", "(-s)", out.getvalue())
    record = json.dumps([["corpus"], status, text, ""])
    return {"corpus": hashlib.sha256(record.encode()).hexdigest()}


def _differing_keys(got, want):
    """The invocations whose digest differs between two tables, or that
    only one has."""
    return sorted(k for k in got.keys() | want.keys()
                  if got.get(k) != want.get(k))


def _differing(section, got):
    """The invocations of `section` whose digest is not the table's."""
    return _differing_keys(got, json.loads(TABLE.read_text())[section])


def test_run_outputs_are_pinned():
    assert _differing("run", run_outputs()) == []


def test_check_and_reconstruct_outputs_are_pinned(tmp_path):
    assert _differing("check", check_outputs(tmp_path)) == []


def test_corpus_output_is_pinned():
    assert _differing("corpus", corpus_output()) == []


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {"run": run_outputs(), "check": check_outputs(Path(tmp)),
                 "corpus": corpus_output()}
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    for section, got in table.items():
        want = old.get(section, {})
        for key in _differing_keys(got, want):
            change = "added" if key not in want else \
                "dropped" if key not in got else "changed"
            print(f"{change}: {section}: {key}", file=sys.stderr)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, table.values()))} invocations written to {TABLE}",
          file=sys.stderr)

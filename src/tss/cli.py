"""Command-line entry point to the `pipeline` (parse -> instantiate ->
instrument -> reconstruct -> check -> run), plus subtype queries and the
bundled corpus.

Exit status: 0 on success, 1 on a verdict failure, 2 on usage or parse
errors (a `subtype` operand that is not a closed type among them) and on
files that cannot be read or written.
"""

from __future__ import annotations

import argparse
import errno
import re
import sys
from contextlib import ExitStack
from typing import IO

from . import acceptance
from .ast import Signature, TypeName, index_vars, type_refs
from .errors import ParseError, TssError
from .instantiate import instantiate_many
from .parser import parse_program, parse_type
from .pipeline import load
from .printer import pretty_print
from .runtime import Trace, is_poised
from .subtyping import is_subtype
from .typeops import TypeOps


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise OSError(errno.EILSEQ, f"not UTF-8 text ({e.reason} at "
                          f"byte {e.start})", path) from None


def _open(path: str, files: ExitStack) -> IO[str]:
    """Stdout if `path` is '-', else the file `path`, opened for writing
    and closed when `files` closes."""
    if path == "-":
        return sys.stdout
    return files.enter_context(open(path, "w", encoding="utf-8"))


def _write(path: str, text: str) -> None:
    """Write `text` to the file `path`, or to stdout if `path` is '-'."""
    with ExitStack() as files:
        _open(path, files).write(text)


def _parse_bind(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in text.split(",") if text else []:
        m = re.fullmatch(r"\s*(\w+)\s*=\s*(-?\d+)\s*", item)
        if m is None:
            raise argparse.ArgumentTypeError(
                f"malformed binding {item!r}; expected name=integer")
        if m[1] in out:
            raise argparse.ArgumentTypeError(
                f"malformed binding {item!r}; {m[1]} is already bound")
        out[m[1]] = int(m[2])
    return out


def _budget(text: str) -> int:
    """A step budget: an integer, at least 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") \
            from None
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"step budget must be at least 0, got {n}")
    return n


def _report(errors: list) -> bool:
    """Print `errors` to stderr; True if there were any."""
    for e in errors:
        print(e, file=sys.stderr)
    return bool(errors)


def cmd_check(args) -> int:
    prog = load(_read(args.file), [args.def_] if args.def_ else [],
                args.bind, args.cost, args.explicit)
    if _report(prog.errors):
        return 1
    print(f"ok: {len(prog.ticked.procdefs)} definition(s) check")
    return 0


def cmd_reconstruct(args) -> int:
    # The elaboration is printed even if the explicit check rejects it.
    prog = load(_read(args.file), [args.def_] if args.def_ else [],
                args.bind, args.cost)
    if prog.verdict == "recon_error":
        _report(prog.errors)
        return 1
    _write(args.output, pretty_print(prog.elab))
    return 0


def cmd_run(args) -> int:
    prog = load(_read(args.file), [args.main], args.bind, args.cost,
                args.explicit)
    if _report(prog.errors):
        return 1
    with ExitStack() as files:
        sinks = {p: _open(p, files)
                 for p in (args.trace, args.trace_json) if p}
        trace = Trace(sinks.get(args.trace), sinks.get(args.trace_json)) \
            if sinks else None
        final, status, chain = prog.run(args.sched, args.seed, args.steps,
                                        trace, args.check_config)
    print(f"{status} after {trace.count} steps" if trace else status)
    for kind, payload, t in chain:
        label = f" {payload}" if payload else ""
        print(f"  t={t}: {kind}{label}")
    if status == "quiescent" and not is_poised(final):
        print("final configuration is not poised", file=sys.stderr)
        return 1
    return 0


def cmd_subtype(args) -> int:
    a, b = parse_type(args.left), parse_type(args.right)
    # Operands are decided over the empty signature: they must be closed.
    for text, t in ((args.left, a), (args.right, b)):
        ref = next(type_refs(t), None)
        if ref is not None:
            what = (f"type name '{ref.name}'" if isinstance(ref, TypeName)
                    else f"index variable '{min(index_vars(ref))}'")
            print(f"error: subtype operand {text!r} uses {what}; operands "
                  f"must be closed types", file=sys.stderr)
            return 2
    ops = TypeOps(Signature())
    trace: list[str] = []
    verdict = is_subtype(ops, a, b, trace=trace)
    print("true" if verdict else "false")
    if args.verbose and verdict:
        print("rules: " + " ".join(reversed(trace)))
    return 0 if verdict else 1


def cmd_instantiate(args) -> int:
    sig = parse_program(_read(args.file))
    _write(args.output,
           pretty_print(instantiate_many(sig, [args.def_], args.bind)))
    return 0


def cmd_corpus(args) -> int:
    if not acceptance.select(args.filter):
        print(f"error: --filter {args.filter!r} matches no criterion",
              file=sys.stderr)
        return 2
    return 0 if acceptance.run_all(args.filter) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tss", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_cost=True):
        if with_cost:
            p.add_argument("--cost", choices=("free", "r", "rs"),
                           default="free")
        p.add_argument("--bind", type=_parse_bind, default="",
                       help="parameter binding, e.g. n=3,k=2")

    p = sub.add_parser("check", help="typecheck a program")
    p.add_argument("file")
    p.add_argument("--def", dest="def_", default="",
                   help="instantiate this definition (with --bind) first")
    p.add_argument("--explicit", action="store_true",
                   help="skip reconstruction; check the explicit system only")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reconstruct", help="elaborate temporal actions")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--def", dest="def_", default="")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("run", help="execute a process")
    p.add_argument("file")
    p.add_argument("--main", required=True)
    p.add_argument("--sched", choices=("rr", "rand", "sync"), default="rr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_budget, default=10_000)
    p.add_argument("--trace", default="", help="write a text trace ('-' for stdout)")
    p.add_argument("--trace-json", default="", help="write a JSON-lines trace")
    p.add_argument("--check-config", action="store_true",
                   help="typecheck the configuration after every step")
    p.add_argument("--explicit", action="store_true",
                   help="skip reconstruction; run the explicit program as "
                   "written")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("subtype", help="decide T1 <= T2")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_subtype)

    p = sub.add_parser("instantiate", help="ground a parameterized definition")
    p.add_argument("file")
    p.add_argument("--def", dest="def_", required=True)
    p.add_argument("-o", "--output", default="-")
    common(p, with_cost=False)
    p.set_defaults(fn=cmd_instantiate)

    p = sub.add_parser("corpus", help="run the bundled example suite")
    p.add_argument("--filter", default="")
    p.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        where = f"{e.filename}: " if e.filename else ""
        print(f"error: {where}{e.strerror or e}", file=sys.stderr)
        return 2
    except TssError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

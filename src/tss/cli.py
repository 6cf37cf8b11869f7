"""Command-line entry point: parse -> instantiate -> instrument ->
reconstruct -> check -> run, plus subtype queries and the bundled corpus.

Exit status: 0 on success, 1 on a verdict failure, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import sys

from . import acceptance
from .ast import Signature
from .checker import check_signature
from .cost import instrument
from .errors import ParseError, TssError
from .instantiate import (instantiate_many, mangled_name,
                          signature_is_parameterized)
from .parser import parse_program, parse_type
from .printer import pretty_print
from .reconstruct import elaborate_signature
from .runtime import (Engine, Trace, check_configuration, init_config,
                      is_poised, make_scheduler, root_chain)
from .subtyping import is_subtype
from .typeops import TypeOps, check_contractive


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _parse_bind(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not text:
        return out
    for item in text.split(","):
        name, _, value = item.partition("=")
        out[name.strip()] = int(value)
    return out


def _load(path: str, bind: dict[str, int], roots: list[str]) -> Signature:
    sig = parse_program(_read(path))
    check_contractive(sig)
    if roots:
        return instantiate_many(sig, roots, bind)
    if signature_is_parameterized(sig):
        # Without an explicit root, ground every parameter-free process.
        names = [n for n, pd in sig.procdecls.items() if pd.arity == 0]
        if not names:
            raise TssError("program is parameterized; pass --def/--main "
                           "with --bind to pick an instance")
        return instantiate_many(sig, names, bind)
    return sig


def _pipeline(sig: Signature, cost: str, explicit: bool):
    ticked = instrument(sig, cost)
    if explicit:
        return ticked, check_signature(ticked)
    elab, errors = elaborate_signature(ticked)
    if errors:
        return elab, errors
    return elab, check_signature(elab, call_subtyping=True)


def cmd_check(args) -> int:
    roots = [args.def_] if args.def_ else []
    sig = _load(args.file, _parse_bind(args.bind), roots)
    _, errors = _pipeline(sig, args.cost, args.explicit)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"ok: {len(sig.procdefs)} definition(s) check")
    return 0


def cmd_reconstruct(args) -> int:
    roots = [args.def_] if args.def_ else []
    sig = _load(args.file, _parse_bind(args.bind), roots)
    ticked = instrument(sig, args.cost)
    elab, errors = elaborate_signature(ticked)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    text = pretty_print(elab)
    if args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def cmd_run(args) -> int:
    bind = _parse_bind(args.bind)
    src = parse_program(_read(args.file))
    check_contractive(src)
    sig = instantiate_many(src, [args.main], bind)
    main = mangled_name(src, args.main, bind)
    elab, errors = _pipeline(sig, args.cost, args.explicit)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    ops = TypeOps(elab)
    eng = Engine(elab, ops)
    cfg = init_config(elab, main)
    root = cfg.order[0]
    declared = {root: cfg.ptypes[root]}
    trace = Trace() if (args.trace or args.trace_json) else None
    cache: dict = {}
    on_step = None
    if args.check_config:
        check_configuration(ops, {}, cfg, declared, cache)

        def on_step(c):
            check_configuration(ops, {}, c, declared, cache)

    final, status = eng.run(cfg, make_scheduler(args.sched, args.seed),
                            args.steps, trace=trace, on_step=on_step)
    if trace is not None:
        for path, text in ((args.trace, trace.to_text()),
                           (args.trace_json, trace.to_json())):
            if not path:
                continue
            if path == "-":
                print(text, end="")
            else:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
    print(f"{status} after {len(trace.steps) if trace else '?'} steps"
          if trace else status)
    for kind, payload, t in root_chain(final, root):
        label = f" {payload}" if payload else ""
        print(f"  t={t}: {kind}{label}")
    if status == "quiescent" and not is_poised(final):
        print("final configuration is not poised", file=sys.stderr)
        return 1
    return 0


def cmd_subtype(args) -> int:
    a, b = parse_type(args.left), parse_type(args.right)
    ops = TypeOps(Signature())
    trace: list[str] = []
    verdict = is_subtype(ops, a, b, trace=trace)
    print("true" if verdict else "false")
    if args.verbose and verdict:
        print("rules: " + " ".join(reversed(trace)))
    return 0 if verdict else 1


def cmd_instantiate(args) -> int:
    sig = parse_program(_read(args.file))
    ground = instantiate_many(sig, [args.def_], _parse_bind(args.bind))
    text = pretty_print(ground)
    if args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def cmd_corpus(args) -> int:
    return 0 if acceptance.run_all(args.filter or "") else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tss", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_cost=True):
        if with_cost:
            p.add_argument("--cost", choices=("free", "r", "rs"),
                           default="free")
        p.add_argument("--bind", default="",
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
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--trace", default="", help="write a text trace ('-' for stdout)")
    p.add_argument("--trace-json", default="", help="write a JSON-lines trace")
    p.add_argument("--check-config", action="store_true",
                   help="typecheck the configuration after every step")
    p.add_argument("--explicit", action="store_true")
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
    except TssError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

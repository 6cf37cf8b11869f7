"""Pretty-printer.  Output re-parses to a structurally equal Signature.

Types print through a table from the class of the node to its printer.  A
body prints as a loop down its chain of continuations: each form that goes
on with `cont` prints one line from `_PREFIX`, a cut prints its body inline
when that is one line from `_LAST` and in parentheses otherwise, and a
close, forward, tail call or case ends the chain."""

from __future__ import annotations

from .ast import (Box, Case, Close, Cut, DeclClause, DefClause, Delay, Diamond,
                  Fwd, IVar, IndexExpr, Lolli, Next, Now, One, Origin, Plus,
                  ProcExpr, RecvChan, SendChan, SendLabel, SessionType,
                  Signature, Spawn, TailCall, Tensor, TypeClause, TypeName,
                  Wait, When, With, fmt_index, fmt_pat)

_LOLLI, _TENSOR, _ATOM = 0, 1, 2


def fmt_count(c: IndexExpr) -> str:
    if isinstance(c, int) or isinstance(c, IVar):
        return f"^{fmt_index(c)}"
    return f"^{{{fmt_index(c)}}}"


def fmt_type(t: SessionType, prec: int = _LOLLI) -> str:
    fmt = _TYPE.get(type(t))
    if fmt is None:
        raise AssertionError(f"unknown type node {t!r}")
    return fmt(t, prec)


def _choice(t: Plus | With, prec: int) -> str:
    inner = ", ".join([f"{lab} : {fmt_type(ty)}" for lab, ty in t.branches])
    return ("+{" if type(t) is Plus else "&{") + inner + "}"


def _tensor(t: Tensor, prec: int) -> str:
    s = f"{fmt_type(t.left, _ATOM)} * {fmt_type(t.right, _TENSOR)}"
    return f"({s})" if prec > _TENSOR else s


def _lolli(t: Lolli, prec: int) -> str:
    s = f"{fmt_type(t.arg, _TENSOR)} -o {fmt_type(t.cont, _LOLLI)}"
    return f"({s})" if prec > _LOLLI else s


def _next(t: Next, prec: int) -> str:
    if t.count == 1:
        return f"(){fmt_type(t.inner, _ATOM)}"
    return f"(){fmt_count(t.count)} {fmt_type(t.inner, _ATOM)}"


def _name(t: TypeName, prec: int) -> str:
    if t.args:
        return f"{t.name}[{', '.join([fmt_index(a) for a in t.args])}]"
    return t.name


_TYPE = {Plus: _choice, With: _choice, One: lambda t, prec: "1",
         Tensor: _tensor, Lolli: _lolli, Next: _next,
         Box: lambda t, prec: f"[]{fmt_type(t.inner, _ATOM)}",
         Diamond: lambda t, prec: f"<>{fmt_type(t.inner, _ATOM)}",
         TypeName: _name}


def _call_suffix(proc: str, args, chans) -> str:
    s = proc
    if args:
        s += f"[{', '.join([fmt_index(a) for a in args])}]"
    if chans:
        s += " <- " + " ".join(chans)
    return s


def _delay(p: Delay) -> str:
    if p.origin is Origin.TICK:
        return "tick ;"
    count = p.count
    tok = "delay" if count == 1 else f"delay{{{fmt_index(count)}}}"
    marker = "  % reconstructed" if p.origin is Origin.RECON else ""
    return f"{tok} ;{marker}"


# The one line of each form that prints as a line and goes on with `cont`.
_PREFIX = {
    SendLabel: lambda p: f"{p.chan}.{p.label} ;",
    Wait: lambda p: f"wait {p.chan} ;",
    SendChan: lambda p: f"send {p.chan} {p.payload} ;",
    RecvChan: lambda p: f"{p.bind} <- recv {p.chan} ;",
    Delay: _delay,
    When: lambda p: f"when? {p.chan} ;",
    Now: lambda p: f"now! {p.chan} ;",
    Spawn: lambda p: f"{p.dest} <- {_call_suffix(p.proc, p.args, p.chans)} ;",
}

# The line of each form that ends a body on one line.
_LAST = {
    Close: lambda p: f"close {p.chan}",
    Fwd: lambda p: f"{p.dest} <- {p.src}",
    TailCall: lambda p: f"{p.dest} <- {_call_suffix(p.proc, p.args, p.chans)}",
}


def fmt_proc(p: ProcExpr, indent: int = 0) -> str:
    pad = " " * indent
    lines: list[str] = []
    while True:
        cls = type(p)
        line = _PREFIX.get(cls)
        if line is not None:
            lines.append(pad + line(p))
            p = p.cont
        elif cls is Cut:
            head = f"{pad}{p.dest} : {fmt_type(p.annot)} <- "
            body = p.body
            last = _LAST.get(type(body))
            if last is not None:
                lines.append(f"{head}{last(body)} ;")
            else:
                lines.append(head + "(")
                lines.append(fmt_proc(body, indent + 2))
                lines.append(f"{pad}) ;")
            p = p.cont
        elif cls in _LAST:
            lines.append(pad + _LAST[cls](p))
            return "\n".join(lines)
        elif cls is Case:
            lines.append(f"{pad}case {p.chan}")
            opener = "("
            for lab, body in p.branches:
                lines.append(f"{pad}  {opener} {lab} =>")
                lines.append(fmt_proc(body, indent + 6))
                opener = "|"
            lines.append(f"{pad}  )")
            return "\n".join(lines)
        else:
            raise AssertionError(f"unknown process node {p!r}")


def _fmt_pats(pats) -> str:
    return f"[{', '.join(fmt_pat(q) for q in pats)}]" if pats else ""


def _fmt_type_clause(name: str, cl: TypeClause) -> str:
    return f"type {name}{_fmt_pats(cl.patterns)} = {fmt_type(cl.body)}"


def _fmt_decl_clause(name: str, cl: DeclClause) -> str:
    if cl.ctx:
        ctx = " ".join(f"({c} : {fmt_type(t)})" for c, t in cl.ctx)
    else:
        ctx = "."
    return (f"decl {name}{_fmt_pats(cl.patterns)} : {ctx} "
            f"|- ({cl.offer_chan} : {fmt_type(cl.offer_type)})")


def _fmt_def_clause(name: str, cl: DefClause) -> str:
    head = f"proc {cl.dest} <- {name}{_fmt_pats(cl.patterns)}"
    if cl.chans:
        head += " <- " + " ".join(cl.chans)
    return f"{head} =\n{fmt_proc(cl.body, 2)}"


def pretty_print(sig: Signature) -> str:
    chunks: list[str] = []
    for name, td in sig.typedefs.items():
        for cl in td.clauses:
            chunks.append(_fmt_type_clause(name, cl))
    for name, pd in sig.procdecls.items():
        for cl in pd.clauses:
            chunks.append(_fmt_decl_clause(name, cl))
        if name in sig.procdefs:
            for dcl in sig.procdefs[name].clauses:
                chunks.append(_fmt_def_clause(name, dcl))
    return "\n".join(chunks) + "\n"

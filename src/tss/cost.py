"""Cost-model instrumentation: mechanical insertion of tick delays.

Model "r" charges one unit per receive: a tick opens every case branch and
follows every wait and channel receive.  Model "rs" additionally charges
sends: a tick follows every label send and channel send (close carries no
continuation to delay).  Forwards, spawns and cuts are never charged.

Instrumenting is one walk over each body that dispatches on the class of
the node and refuses the body at the first tick it meets, so a source that
already carries ticks is never charged twice.
"""

from __future__ import annotations

from operator import is_

from .ast import (Case, DefClause, Delay, Origin, ProcDef, ProcExpr, RecvChan,
                  SendChan, SendLabel, Signature, Wait, map_subprocs, subprocs,
                  with_subprocs)
from .errors import InstrumentError

MODELS = ("free", "r", "rs")


_RECEIVES = frozenset({Case, Wait, RecvChan})
_SENDS = frozenset({SendLabel, SendChan})


class _Ticked(Exception):
    """A body met a tick while it was being instrumented."""


def _instrument(p: ProcExpr, sends: bool) -> ProcExpr:
    """`p` with a tick opening each sub-process of every action the model
    charges, at the position of that action.  Raises `_Ticked` at a tick
    already there."""
    cls = type(p)
    if cls is Delay and p.origin is Origin.TICK:
        raise _Ticked
    subs = subprocs(p)
    if not subs:
        return p
    new = [_instrument(q, sends) for q in subs]
    if cls in _RECEIVES or sends and cls in _SENDS:
        return with_subprocs(p, [Delay(1, Origin.TICK, q, p.pos) for q in new])
    return p if all(map(is_, new, subs)) else with_subprocs(p, new)


def erase_ticks(p: ProcExpr) -> ProcExpr:
    if isinstance(p, Delay) and p.origin is Origin.TICK:
        return erase_ticks(p.cont)
    return map_subprocs(p, erase_ticks)


def instrument(sig: Signature, model: str) -> Signature:
    """Insert the model's ticks into every process body.  Instrumenting a
    source that already carries ticks is an error (no double charging)."""
    if model not in MODELS:
        raise InstrumentError(f"unknown cost model {model!r}")
    if model == "free":
        return sig
    out = Signature(dict(sig.typedefs), dict(sig.procdecls), {})
    for name, pdef in sig.procdefs.items():
        clauses = []
        for cl in pdef.clauses:
            try:
                body = _instrument(cl.body, model == "rs")
            except _Ticked:
                raise InstrumentError(
                    f"'{name}' already contains ticks") from None
            clauses.append(DefClause(cl.patterns, cl.dest, cl.chans, body,
                                     cl.pos))
        out.procdefs[name] = ProcDef(name, clauses)
    return out

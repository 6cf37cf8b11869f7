"""Cost-model instrumentation: mechanical insertion of tick delays.

Model "r" charges one unit per receive: a tick opens every case branch and
follows every wait and channel receive.  Model "rs" additionally charges
sends: a tick follows every label send and channel send (close carries no
continuation to delay).  Forwards, spawns and cuts are never charged.
"""

from __future__ import annotations

from .ast import (Case, DefClause, Delay, Origin, Pos, ProcDef, ProcExpr,
                  RecvChan, SendChan, SendLabel, Signature, Wait, map_subprocs,
                  subprocs)
from .errors import InstrumentError

MODELS = ("free", "r", "rs")


def _has_tick(p: ProcExpr) -> bool:
    if isinstance(p, Delay) and p.origin is Origin.TICK:
        return True
    return any(map(_has_tick, subprocs(p)))


def _tick(p: ProcExpr, pos: Pos | None) -> ProcExpr:
    """A tick before `p`, at the position `pos` of the action it charges."""
    return Delay(1, Origin.TICK, p, pos)


_RECEIVES = (Case, Wait, RecvChan)
_SENDS = (SendLabel, SendChan)


def _instrument(p: ProcExpr, sends: bool) -> ProcExpr:
    if isinstance(p, _RECEIVES) or sends and isinstance(p, _SENDS):
        return map_subprocs(p, lambda q: _tick(_instrument(q, sends), p.pos))
    return map_subprocs(p, lambda q: _instrument(q, sends))


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
            if _has_tick(cl.body):
                raise InstrumentError(f"'{name}' already contains ticks")
            clauses.append(DefClause(cl.patterns, cl.dest, cl.chans,
                                     _instrument(cl.body, model == "rs"),
                                     cl.pos))
        out.procdefs[name] = ProcDef(name, clauses)
    return out

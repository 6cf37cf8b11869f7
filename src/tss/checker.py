"""The typing rules of the explicit system, one per process form, and the
syntax-directed typechecker that reads them.

`rule` states what one sequent `ctx |- p :: (x : offer)` asks of its head
form.  It answers with the premises, the sequents of p's sub-processes in
`subprocs` order, or with a `Stop`: why the rule does not apply.  Both
engines read the same rules: `Checker.check` raises a `Stop` as an error
and checks every premise, and time reconstruction (`reconstruct._Elab`)
uses a `Stop`'s kind to decide whether a temporal step may help.  The time
rules are stated once too: `shift_all` shifts a whole sequent, `delay_stop`
says why it cannot be shifted, and `patience` is the side condition of
when? that the `[]R`/`<>L` rules and reconstruction share.

A call passes each argument at a weak subtype of its parameter's type,
the one gap a run opens there and the configuration check allows, and a
tail call offers exactly its declared type (reconstruction bridges any
other offer with a forward).
"""

from __future__ import annotations

from .ast import (Box, Case, Close, Cut, Delay, Diamond, Fwd, Lolli, Now,
                  One, Plus, ProcExpr, RecvChan, SendChan, SendLabel,
                  SessionType, Signature, Spawn, TailCall, Tensor, TypeName,
                  Wait, When, With, branch_get, branch_labels, free_chans)
from .errors import SessionTypeError
from .printer import fmt_type
from .subtyping import is_weak_subtype
from .typeops import TypeOps

Ctx = dict[str, SessionType]

# The kinds of a Stop.  `SCOPE`: no temporal step can help (a name, an
# arity, shadowing, a leftover context).  `SHAPE`: a type is exposed at the
# wrong connective, or a type or label does not match.  `WAIT`: a type is
# not yet exposed.
SCOPE, SHAPE, WAIT = "scope", "shape", "wait"


def _fmt_ctx(ctx: Ctx) -> str:
    if not ctx:
        return "."
    return ", ".join(f"{c}:{fmt_type(t)}" for c, t in ctx.items())


def _fmt(v) -> str:
    return fmt_type(v) if isinstance(v, SessionType) else v or ""


class Stop:
    """Why a rule does not apply: its kind, the paper's name of the rule,
    the message, and what was expected and found (types or text), with the
    context when it is at fault.  Types are formatted only by `error`."""

    __slots__ = ("kind", "rule", "msg", "expected", "found", "ctx")

    def __init__(self, kind: str, rule: str, msg: str, expected=None,
                 found=None, ctx: Ctx | None = None):
        self.kind = kind
        self.rule = rule
        self.msg = msg
        self.expected = expected
        self.found = found
        self.ctx = ctx

    def error(self, p: ProcExpr) -> SessionTypeError:
        """The error of this stop at the node `p`."""
        return SessionTypeError(
            self.msg, rule=self.rule, pos=getattr(p, "pos", None),
            expected=_fmt(self.expected), found=_fmt(self.found),
            ctx="" if self.ctx is None else _fmt_ctx(self.ctx))


# ---------------------------------------------------------------------------
# Side conditions shared by several rules

def _exposed(ops: TypeOps, t: SessionType, want: type, chan: str, rule: str):
    """The head of `t` if it is a `want`, else the stop: wait while `t` is
    delayed, shape when it is exposed at another connective."""
    got = ops.expose(t)
    if got is None:
        return Stop(WAIT, rule, f"channel {chan} is not ready for this action",
                    want.__name__, t)
    if not isinstance(got, want):
        return Stop(SHAPE, rule, f"wrong protocol state on {chan}",
                    want.__name__, got)
    return got


def _unknown(chan: str, ctx: Ctx, rule: str) -> Stop:
    return Stop(SCOPE, rule, f"channel {chan} is not in the context", ctx=ctx)


def _shadows(name: str, ctx: Ctx, rule: str) -> Stop:
    return Stop(SCOPE, rule, f"channel name {name} shadows a live channel",
                ctx=ctx)


def patience(ops: TypeOps, ctx: Ctx, rule: str, skip: str | None = None,
             offer: SessionType | None = None) -> Stop | None:
    """The side condition of when?: every channel of `ctx` but `skip` can
    wait indefinitely (()^n [] _), and so can `offer` (()^n <> _) when
    given.  None when it holds, else the stop naming the first that
    cannot."""
    for c, t in ctx.items():
        if c != skip and not ops.patient(t, "box"):
            return Stop(SHAPE, rule, f"channel {c} cannot wait indefinitely",
                        "()^n [] _", t)
    if offer is not None and not ops.patient(offer, "diamond"):
        return Stop(SHAPE, rule, "offered type cannot wait for now!",
                    "()^n <> _", offer)
    return None


def shift_all(ops: TypeOps, ctx: Ctx, offer: SessionType, n: int):
    """The sequent n time units later, every antecedent shifted left and
    the offer right, in time independent of n; None when a shift is
    undefined."""
    sctx: Ctx = {}
    for c, t in ctx.items():
        s = ops.shift_left_n(t, n)
        if s is None:
            return None
        sctx[c] = s
    soff = ops.shift_right_n(offer, n)
    if soff is None:
        return None
    return sctx, soff


def _delay_room(ops: TypeOps, t: SessionType, keeps: type) -> float:
    """How many unit shifts t allows: its leading delays, unless a `keeps`
    head or an infinite delay tower allows any number."""
    count, base = ops.strip(t)
    return float("inf") if isinstance(base, (keeps, TypeName)) else count


def delay_stop(ops: TypeOps, ctx: Ctx, offer: SessionType, n: int) -> Stop:
    """Why a delay of n units is undefined, as the unit-by-unit loop says
    it: the types are shifted as far as all of them allow, and the first
    that does not allow the next unit is named."""
    safe = min([_delay_room(ops, t, Box) for t in ctx.values()]
               + [_delay_room(ops, offer, Diamond)])
    for c, t in ctx.items():
        t = ops.shift_left_n(t, safe)
        if ops.shift_left(t) is None:
            return Stop(SHAPE, "()LR", f"channel {c} does not allow a delay",
                        found=t)
    return Stop(SHAPE, "()LR", "offered type does not allow a delay",
                found=ops.shift_right_n(offer, safe))


def consume_call(ops: TypeOps, ctx: Ctx, p) -> Ctx | Stop:
    """The context left once the call `p` has taken its channels, each a
    weak subtype of its parameter's type, or the stop."""
    decl = ops.sig.decl(p.proc)
    chans = p.chans
    if len(chans) != len(decl.ctx):
        return Stop(SCOPE, "def", f"{p.proc} takes {len(decl.ctx)} channel(s),"
                    f" got {len(chans)}")
    if len(set(chans)) != len(chans):
        return Stop(SCOPE, "def", "a channel is passed twice to a call",
                    ctx=ctx)
    rest = dict(ctx)
    for actual, (formal, want) in zip(chans, decl.ctx):
        if actual not in ctx:
            return _unknown(actual, ctx, "def")
        t = ctx[actual]
        if not is_weak_subtype(ops, t, want):
            return Stop(SHAPE, "def", f"argument {actual} does not match "
                        f"parameter {formal} of {p.proc}", want, t)
        del rest[actual]
    return rest


# ---------------------------------------------------------------------------
# The rules, one per process form.  Each takes (ops, ctx, p, x, offer)
# and returns the premises, as (ctx, q, chan, offer) tuples, or a Stop.

def _fwd(ops, ctx, p, x, offer):
    if p.dest != x:
        return Stop(SCOPE, "id", f"forward must provide the offered channel {x}")
    src = p.src
    if src not in ctx:
        return Stop(SCOPE, "id", f"forward source {src} is not in the context",
                    ctx=ctx)
    if len(ctx) != 1:
        return Stop(SCOPE, "id", "forward leaves channels unconsumed", ctx=ctx)
    t = ctx[src]
    if not ops.type_equal(t, offer):
        waits = ops.expose(t) is None and ops.expose(offer) is None
        return Stop(WAIT if waits else SHAPE, "id", "forwarded types differ",
                    offer, t)
    return ()


def _spawn(ops, ctx, p, x, offer):
    rest = consume_call(ops, ctx, p)
    if type(rest) is Stop:
        return rest
    if p.dest in rest or p.dest == x:
        return _shadows(p.dest, rest, "def")
    rest[p.dest] = ops.sig.decl(p.proc).offer_type
    return ((rest, p.cont, x, offer),)


def _tail_call(ops, ctx, p, x, offer):
    """With `offer` None the offered types are not compared: reconstruction
    bridges them itself."""
    if p.dest != x:
        return Stop(SCOPE, "def", f"tail call must provide the offered channel "
                    f"{x}")
    rest = consume_call(ops, ctx, p)
    if type(rest) is Stop:
        return rest
    if rest:
        return Stop(SCOPE, "def", "tail call leaves channels unconsumed",
                    ctx=rest)
    declared = ops.sig.decl(p.proc).offer_type
    if offer is not None and not ops.type_equal(declared, offer):
        return Stop(SHAPE, "def", f"offered type of {p.proc} does not match",
                    offer, declared)
    return ()


def _cut(ops, ctx, p, x, offer):
    dest = p.dest
    if dest in ctx or dest == x:
        return _shadows(dest, ctx, "cut")
    used = free_chans(p.body) - {dest}
    missing = used - ctx.keys()
    if missing:
        return Stop(SCOPE, "cut", f"cut body uses unknown channel(s) "
                    f"{', '.join(sorted(missing))}", ctx=ctx)
    ctx_body = {c: t for c, t in ctx.items() if c in used}
    ctx_cont = {c: t for c, t in ctx.items() if c not in used}
    ctx_cont[dest] = p.annot
    return ((ctx_body, p.body, dest, p.annot), (ctx_cont, p.cont, x, offer))


# The connective a one-channel action needs and the rule it applies, on the
# offered channel and on a used one.
_HEADS = {SendLabel: (Plus, "+R", With, "&L"), Case: (With, "&R", Plus, "+L"),
          SendChan: (Tensor, "*R", Lolli, "-oL"),
          RecvChan: (Lolli, "-oR", Tensor, "*L"),
          Now: (Diamond, "<>R", Box, "[]L"), When: (Box, "[]R", Diamond, "<>L")}


def _head(ops, ctx, p, x, offer):
    """The exposed head of the type of the channel `p` acts on, or the
    stop."""
    right, rule_r, left, rule_l = _HEADS[type(p)]
    chan = p.chan
    if chan == x:
        return _exposed(ops, offer, right, chan, rule_r)
    if chan not in ctx:
        return _unknown(chan, ctx, rule_l)
    return _exposed(ops, ctx[chan], left, chan, rule_l)


def _send_label(ops, ctx, p, x, offer):
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    on_offer = p.chan == x
    nxt = branch_get(t.branches, p.label)
    if nxt is None:
        return Stop(SHAPE, "+R" if on_offer else "&L", f"label {p.label} is "
                    f"not {'offered' if on_offer else 'accepted'}",
                    "|".join(branch_labels(t.branches)), p.label)
    if on_offer:
        return ((ctx, p.cont, x, nxt),)
    return (({**ctx, p.chan: nxt}, p.cont, x, offer),)


def _case(ops, ctx, p, x, offer):
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    want = set(branch_labels(t.branches))
    have = {lab for lab, _ in p.branches}
    if want != have:
        return Stop(SHAPE, "&R" if p.chan == x else "+L",
                    "case branches do not match the protocol labels",
                    "|".join(sorted(want)), "|".join(sorted(have)))
    d = dict(t.branches)
    if p.chan == x:
        return tuple([(ctx, body, x, d[lab]) for lab, body in p.branches])
    return tuple([({**ctx, p.chan: d[lab]}, body, x, offer)
                  for lab, body in p.branches])


def _close(ops, ctx, p, x, offer):
    if p.chan != x:
        return Stop(SCOPE, "1R", f"close must act on the offered channel {x}")
    t = _exposed(ops, offer, One, x, "1R")
    if type(t) is Stop:
        return t
    if ctx:
        return Stop(SCOPE, "1R", "close with channels left in the context",
                    ctx=ctx)
    return ()


def _wait(ops, ctx, p, x, offer):
    chan = p.chan
    if chan not in ctx:
        return _unknown(chan, ctx, "1L")
    t = _exposed(ops, ctx[chan], One, chan, "1L")
    if type(t) is Stop:
        return t
    ctx2 = dict(ctx)
    del ctx2[chan]
    return ((ctx2, p.cont, x, offer),)


def _send_chan(ops, ctx, p, x, offer):
    payload = p.payload
    if payload not in ctx:
        return _unknown(payload, ctx, "send")
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    pt = ctx[payload]
    want = t.left if p.chan == x else t.arg
    if not ops.type_equal(pt, want):
        return Stop(SHAPE, "*R" if p.chan == x else "-oL",
                    f"sent channel {payload} has the wrong type", want, pt)
    ctx2 = dict(ctx)
    del ctx2[payload]
    if p.chan == x:
        return ((ctx2, p.cont, x, t.right),)
    ctx2[p.chan] = t.cont
    return ((ctx2, p.cont, x, offer),)


def _recv_chan(ops, ctx, p, x, offer):
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    bind = p.bind
    if bind in ctx or bind == x:
        return _shadows(bind, ctx, "-oR" if p.chan == x else "*L")
    if p.chan == x:
        return (({**ctx, bind: t.arg}, p.cont, x, t.cont),)
    return (({**ctx, bind: t.left, p.chan: t.right}, p.cont, x, offer),)


def _delay(ops, ctx, p, x, offer):
    count = p.count
    if not isinstance(count, int) or count < 1:
        return Stop(SCOPE, "()LR", f"delay count must be a ground positive "
                    f"natural, got {count!r}")
    shifted = shift_all(ops, ctx, offer, count)
    if shifted is None:
        return delay_stop(ops, ctx, offer, count)
    return ((shifted[0], p.cont, x, shifted[1]),)


def _now(ops, ctx, p, x, offer):
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    if p.chan == x:
        return ((ctx, p.cont, x, t.inner),)
    return (({**ctx, p.chan: t.inner}, p.cont, x, offer),)


def _when(ops, ctx, p, x, offer):
    t = _head(ops, ctx, p, x, offer)
    if type(t) is Stop:
        return t
    if p.chan == x:
        stop = patience(ops, ctx, "[]R")
    else:
        stop = patience(ops, ctx, "<>L", p.chan, offer)
    if stop is not None:
        return stop
    if p.chan == x:
        return ((ctx, p.cont, x, t.inner),)
    return (({**ctx, p.chan: t.inner}, p.cont, x, offer),)


_RULES = {Fwd: _fwd, Spawn: _spawn, TailCall: _tail_call, Cut: _cut,
          SendLabel: _send_label, Case: _case, Close: _close, Wait: _wait,
          SendChan: _send_chan, RecvChan: _recv_chan, Delay: _delay,
          Now: _now, When: _when}


def rule(ops: TypeOps, ctx: Ctx, p: ProcExpr, x: str, offer: SessionType):
    """The rule of p's form for `ctx |- p :: (x : offer)`: the premises, a
    tuple of (ctx, q, chan, offer) for p's sub-processes q in `subprocs`
    order, or a `Stop`.  No rule changes `ctx`; a premise may share it."""
    fn = _RULES.get(type(p))
    if fn is None:
        return Stop(SCOPE, "?", f"unhandled process form {type(p).__name__}")
    return fn(ops, ctx, p, x, offer)


class Checker:
    def __init__(self, ops: TypeOps):
        self.ops = ops

    def check(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
              offer_type: SessionType) -> None:
        got = rule(self.ops, ctx, p, offer_chan, offer_type)
        if type(got) is Stop:
            raise got.error(p)
        for sequent in got:
            self.check(*sequent)


def check_process(ops: TypeOps, ctx: Ctx, p: ProcExpr, offer_chan: str,
                  offer_type: SessionType) -> None:
    """Raise SessionTypeError unless ctx |- p :: (offer_chan : offer_type)."""
    Checker(ops).check(dict(ctx), p, offer_chan, offer_type)


def check_signature(sig: Signature, ops: TypeOps | None = None, *,
                    call_subtyping=None) -> list[SessionTypeError]:
    """Check every ground definition against its declaration; collects all
    failures rather than stopping at the first.  `call_subtyping` is
    ignored; the benchmark's compile workload still passes it."""
    ops = ops or TypeOps(sig)
    checker = Checker(ops)
    errors: list[SessionTypeError] = []
    for name in sig.procdefs:
        try:
            dcl, ctx, offer = sig.def_goal(name)
            checker.check(ctx, dcl.body, dcl.dest, offer)
        except SessionTypeError as e:
            wrapped = SessionTypeError(f"in {name}: {e}")
            wrapped.rule = e.rule
            wrapped.pos = e.pos
            errors.append(wrapped)
    return errors

"""The explicit, syntax-directed typechecker for ground signatures.

`check_process` decides one sequent.  Rule dispatch follows the head of the
process expression; channels are used linearly, so the leaf rules insist the
context is exactly consumed.  With `call_subtyping=True`, process invocations
compare actual against declared argument types with the subtype relation
instead of equality (the call-site rule used for reconstructed programs).
"""

from __future__ import annotations

from .ast import (Box, Case, Close, Cut, Delay, Diamond, Fwd, Lolli, Now,
                  One, Plus, ProcExpr, RecvChan, SendChan, SendLabel,
                  SessionType, Signature, Spawn, TailCall, Tensor, TypeName,
                  Wait, When, With, branch_get, branch_labels, free_chans)
from .errors import SessionTypeError
from .printer import fmt_type
from .subtyping import is_subtype
from .typeops import TypeOps

Ctx = dict[str, SessionType]


def _fmt_ctx(ctx: Ctx) -> str:
    if not ctx:
        return "."
    return ", ".join(f"{c}:{fmt_type(t)}" for c, t in ctx.items())


def _err(msg, rule, p, *, expected="", found="", ctx=None):
    return SessionTypeError(msg, rule=rule, pos=getattr(p, "pos", None),
                            expected=expected, found=found,
                            ctx=_fmt_ctx(ctx) if ctx is not None else "")


class Checker:
    def __init__(self, ops: TypeOps, call_subtyping: bool = False):
        self.ops = ops
        self.call_subtyping = call_subtyping
        if call_subtyping:
            self._sub = lambda a, b: is_subtype(ops, a, b)
        else:
            self._sub = ops.type_equal

    # ------------------------------------------------------------------
    def _expose(self, t: SessionType, want, chan: str, rule: str, p) -> SessionType:
        got = self.ops.expose(t)
        if got is None:
            raise _err(f"channel {chan} is not ready for this action",
                       rule, p, expected=want.__name__, found=fmt_type(t))
        if not isinstance(got, want):
            raise _err(f"wrong protocol state on {chan}", rule, p,
                       expected=want.__name__, found=fmt_type(got))
        return got

    def _fresh(self, name: str, ctx: Ctx, offer_chan: str, p, rule: str) -> None:
        if name in ctx or name == offer_chan:
            raise _err(f"channel name {name} shadows a live channel", rule, p,
                       ctx=ctx)

    def check(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
              offer_type: SessionType) -> None:
        ops = self.ops
        match p:
            case Fwd(dest, src):
                if dest != offer_chan:
                    raise _err(f"forward must provide the offered channel "
                               f"{offer_chan}", "id", p)
                if src not in ctx:
                    raise _err(f"forward source {src} is not in the context",
                               "id", p, ctx=ctx)
                if set(ctx) != {src}:
                    raise _err("forward leaves channels unconsumed", "id", p,
                               ctx=ctx)
                if not ops.type_equal(ctx[src], offer_type):
                    raise _err("forwarded types differ", "id", p,
                               expected=fmt_type(offer_type),
                               found=fmt_type(ctx[src]))

            case Spawn(dest, proc, _, chans, cont):
                ctx2 = self._consume_call(ctx, proc, chans, p, "def")
                decl = ops.sig.decl(proc)
                self._fresh(dest, ctx2, offer_chan, p, "def")
                ctx2[dest] = decl.offer_type
                self.check(ctx2, cont, offer_chan, offer_type)

            case TailCall(dest, proc, _, chans):
                if dest != offer_chan:
                    raise _err(f"tail call must provide the offered channel "
                               f"{offer_chan}", "def", p)
                ctx2 = self._consume_call(ctx, proc, chans, p, "def")
                if ctx2:
                    raise _err("tail call leaves channels unconsumed", "def", p,
                               ctx=ctx2)
                decl = ops.sig.decl(proc)
                if not self._sub(decl.offer_type, offer_type):
                    raise _err(f"offered type of {proc} does not match", "def",
                               p, expected=fmt_type(offer_type),
                               found=fmt_type(decl.offer_type))

            case Cut(dest, annot, body, cont):
                self._fresh(dest, ctx, offer_chan, p, "cut")
                used = free_chans(body) - {dest}
                missing = used - set(ctx)
                if missing:
                    raise _err(f"cut body uses unknown channel(s) "
                               f"{', '.join(sorted(missing))}", "cut", p, ctx=ctx)
                ctx_body = {c: t for c, t in ctx.items() if c in used}
                ctx_cont = {c: t for c, t in ctx.items() if c not in used}
                self.check(ctx_body, body, dest, annot)
                ctx_cont[dest] = annot
                self.check(ctx_cont, cont, offer_chan, offer_type)

            case SendLabel(chan, label, cont):
                if chan == offer_chan:
                    t = self._expose(offer_type, Plus, chan, "+R", p)
                    nxt = branch_get(t.branches, label)
                    if nxt is None:
                        raise _err(f"label {label} is not offered", "+R", p,
                                   expected="|".join(branch_labels(t.branches)),
                                   found=label)
                    self.check(ctx, cont, offer_chan, nxt)
                else:
                    t = self._expose(self._use(ctx, chan, p, "&L"), With, chan,
                                     "&L", p)
                    nxt = branch_get(t.branches, label)
                    if nxt is None:
                        raise _err(f"label {label} is not accepted", "&L", p,
                                   expected="|".join(branch_labels(t.branches)),
                                   found=label)
                    ctx2 = dict(ctx)
                    ctx2[chan] = nxt
                    self.check(ctx2, cont, offer_chan, offer_type)

            case Case(chan, branches):
                if chan == offer_chan:
                    t = self._expose(offer_type, With, chan, "&R", p)
                    self._same_labels(t, branches, "&R", p)
                    d = dict(t.branches)
                    for lab, body in branches:
                        self.check(dict(ctx), body, offer_chan, d[lab])
                else:
                    t = self._expose(self._use(ctx, chan, p, "+L"), Plus, chan,
                                     "+L", p)
                    self._same_labels(t, branches, "+L", p)
                    d = dict(t.branches)
                    for lab, body in branches:
                        ctx2 = dict(ctx)
                        ctx2[chan] = d[lab]
                        self.check(ctx2, body, offer_chan, offer_type)

            case Close(chan):
                if chan != offer_chan:
                    raise _err(f"close must act on the offered channel "
                               f"{offer_chan}", "1R", p)
                self._expose(offer_type, One, chan, "1R", p)
                if ctx:
                    raise _err("close with channels left in the context", "1R",
                               p, ctx=ctx)

            case Wait(chan, cont):
                self._expose(self._use(ctx, chan, p, "1L"), One, chan, "1L", p)
                ctx2 = dict(ctx)
                del ctx2[chan]
                self.check(ctx2, cont, offer_chan, offer_type)

            case SendChan(chan, payload, cont):
                pt = self._use(ctx, payload, p, "send")
                if chan == offer_chan:
                    t = self._expose(offer_type, Tensor, chan, "*R", p)
                    if not self.ops.type_equal(pt, t.left):
                        raise _err(f"sent channel {payload} has the wrong type",
                                   "*R", p, expected=fmt_type(t.left),
                                   found=fmt_type(pt))
                    ctx2 = dict(ctx)
                    del ctx2[payload]
                    self.check(ctx2, cont, offer_chan, t.right)
                else:
                    t = self._expose(self._use(ctx, chan, p, "-oL"), Lolli,
                                     chan, "-oL", p)
                    if not self.ops.type_equal(pt, t.arg):
                        raise _err(f"sent channel {payload} has the wrong type",
                                   "-oL", p, expected=fmt_type(t.arg),
                                   found=fmt_type(pt))
                    ctx2 = dict(ctx)
                    del ctx2[payload]
                    ctx2[chan] = t.cont
                    self.check(ctx2, cont, offer_chan, offer_type)

            case RecvChan(bind, chan, cont):
                if chan == offer_chan:
                    t = self._expose(offer_type, Lolli, chan, "-oR", p)
                    self._fresh(bind, ctx, offer_chan, p, "-oR")
                    ctx2 = dict(ctx)
                    ctx2[bind] = t.arg
                    self.check(ctx2, cont, offer_chan, t.cont)
                else:
                    t = self._expose(self._use(ctx, chan, p, "*L"), Tensor,
                                     chan, "*L", p)
                    self._fresh(bind, ctx, offer_chan, p, "*L")
                    ctx2 = dict(ctx)
                    ctx2[bind] = t.left
                    ctx2[chan] = t.right
                    self.check(ctx2, cont, offer_chan, offer_type)

            case Delay(count, _, cont):
                if not isinstance(count, int) or count < 1:
                    raise _err(f"delay count must be a ground positive natural,"
                               f" got {count!r}", "()LR", p)
                ctx2, off2 = self._shift_all(ctx, offer_type, p, count)
                self.check(ctx2, cont, offer_chan, off2)

            case Now(chan, cont):
                if chan == offer_chan:
                    t = self._expose(offer_type, Diamond, chan, "<>R", p)
                    self.check(ctx, cont, offer_chan, t.inner)
                else:
                    t = self._expose(self._use(ctx, chan, p, "[]L"), Box, chan,
                                     "[]L", p)
                    ctx2 = dict(ctx)
                    ctx2[chan] = t.inner
                    self.check(ctx2, cont, offer_chan, offer_type)

            case When(chan, cont):
                if chan == offer_chan:
                    t = self._expose(offer_type, Box, chan, "[]R", p)
                    self._all_patient(ctx, p, "[]R")
                    self.check(ctx, cont, offer_chan, t.inner)
                else:
                    t = self._expose(self._use(ctx, chan, p, "<>L"), Diamond,
                                     chan, "<>L", p)
                    rest = {c: u for c, u in ctx.items() if c != chan}
                    self._all_patient(rest, p, "<>L")
                    if not self.ops.patient(offer_type, "diamond"):
                        raise _err("offered type cannot wait for now!", "<>L",
                                   p, expected="()^n <> _",
                                   found=fmt_type(offer_type))
                    ctx2 = dict(ctx)
                    ctx2[chan] = t.inner
                    self.check(ctx2, cont, offer_chan, offer_type)

            case _:
                raise _err(f"unhandled process form {type(p).__name__}", "?", p)

    # ------------------------------------------------------------------
    def _use(self, ctx: Ctx, chan: str, p, rule: str) -> SessionType:
        if chan not in ctx:
            raise _err(f"channel {chan} is not in the context", rule, p,
                       ctx=ctx)
        return ctx[chan]

    def _same_labels(self, t, branches, rule, p) -> None:
        want = set(branch_labels(t.branches))
        have = {lab for lab, _ in branches}
        if want != have:
            raise _err("case branches do not match the protocol labels", rule,
                       p, expected="|".join(sorted(want)),
                       found="|".join(sorted(have)))

    def _all_patient(self, ctx: Ctx, p, rule: str) -> None:
        for c, t in ctx.items():
            if not self.ops.patient(t, "box"):
                raise _err(f"channel {c} cannot wait indefinitely", rule, p,
                           expected="()^n [] _", found=fmt_type(t))

    def _shift_all(self, ctx: Ctx, offer_type: SessionType, p, n: int):
        """Every type shifted n units, in time independent of n.  When a
        shift is undefined, the error is the one the unit-by-unit loop
        raises: the types are shifted as far as all of them allow, and the
        next unit is taken on its own."""
        ops = self.ops
        ctx2 = {c: ops.shift_left_n(t, n) for c, t in ctx.items()}
        off = ops.shift_right_n(offer_type, n)
        if off is not None and None not in ctx2.values():
            return ctx2, off
        safe = min([self._delay_room(t, Box) for t in ctx.values()]
                   + [self._delay_room(offer_type, Diamond)])
        ctx = {c: ops.shift_left_n(t, safe) for c, t in ctx.items()}
        return self._shift_unit(ctx, ops.shift_right_n(offer_type, safe), p)

    def _delay_room(self, t: SessionType, keeps) -> float:
        """How many unit shifts t allows: its leading delays, unless a
        `keeps` head or an infinite delay tower allows any number."""
        count, base = self.ops.strip(t)
        return float("inf") if isinstance(base, (keeps, TypeName)) else count

    def _shift_unit(self, ctx: Ctx, offer_type: SessionType, p):
        ctx2: Ctx = {}
        for c, t in ctx.items():
            s = self.ops.shift_left(t)
            if s is None:
                raise _err(f"channel {c} does not allow a delay", "()LR", p,
                           found=fmt_type(t))
            ctx2[c] = s
        off = self.ops.shift_right(offer_type)
        if off is None:
            raise _err("offered type does not allow a delay", "()LR", p,
                       found=fmt_type(offer_type))
        return ctx2, off

    def _consume_call(self, ctx: Ctx, proc: str, chans, p, rule: str) -> Ctx:
        decl = self.ops.sig.decl(proc)
        if len(chans) != len(decl.ctx):
            raise _err(f"{proc} takes {len(decl.ctx)} channel(s), got "
                       f"{len(chans)}", rule, p)
        if len(set(chans)) != len(chans):
            raise _err("a channel is passed twice to a call", rule, p, ctx=ctx)
        ctx2 = dict(ctx)
        for actual, (formal, want) in zip(chans, decl.ctx):
            t = self._use(ctx, actual, p, rule)
            if not self._sub(t, want):
                raise _err(f"argument {actual} does not match parameter "
                           f"{formal} of {proc}", rule, p,
                           expected=fmt_type(want), found=fmt_type(t))
            del ctx2[actual]
        return ctx2


def check_process(ops: TypeOps, ctx: Ctx, p: ProcExpr, offer_chan: str,
                  offer_type: SessionType, call_subtyping: bool = False) -> None:
    """Raise SessionTypeError unless ctx |- p :: (offer_chan : offer_type)."""
    Checker(ops, call_subtyping).check(dict(ctx), p, offer_chan, offer_type)


def check_signature(sig: Signature, call_subtyping: bool = False,
                    ops: TypeOps | None = None) -> list[SessionTypeError]:
    """Check every ground definition against its declaration; collects all
    failures rather than stopping at the first."""
    ops = ops or TypeOps(sig)
    checker = Checker(ops, call_subtyping)
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

"""Time reconstruction: typecheck tick-annotated source with no explicit
temporal actions and elaborate it into an explicit program.

The search is driven by the head action of the process.  Between structural
steps it may insert a unit delay (shifting every channel), a now!/when? on
the offered channel, or a now!/when? on a used channel, subject to the same
side conditions the explicit checker enforces.  Choice points (now! against
delay, and so on) backtrack; failed goals are memoized; delays are placed as
late as possible by trying every action-free candidate before a delay.

A delay is always the last candidate, so a goal that takes one returns what
its shifted goal returns behind one more delay unit: `_Elab.elab` follows a
run of delays in a loop and emits it as one merged delay node.  When the
head is a forward or acts on a single channel and every type is delayed,
the next goals are forced and fail silently until the least leading delay
runs out, so that silent run is taken in one jump.  The search budget counts
the goals examined, a jump counting as one.

Process invocations compare actual argument types against the declared ones
with the subtype relation; a tail call whose offered type differs from the
declared one is expanded into a spawn followed by a bridged forward.
"""

from __future__ import annotations

from .ast import (Box, Case, Close, Cut, DefClause, Delay, Diamond, Fwd, Lolli,
                  Now, One, Origin, Plus, ProcDef, ProcExpr, RecvChan,
                  SendChan, SendLabel, SessionType, Signature, Spawn, TailCall,
                  Tensor, Wait, When, With, branch_get, branch_labels,
                  free_chans, map_subprocs, own_chans, subprocs)
from .errors import ReconstructionError, SessionTypeError
from .printer import fmt_type
from .subtyping import is_subtype
from .typeops import TypeOps

Ctx = dict[str, SessionType]


def _validate_source(p: ProcExpr) -> None:
    """Reconstruction input may carry ticks but no other temporal actions."""
    match p:
        case Delay(origin=origin) if origin is not Origin.TICK:
            raise ReconstructionError(
                "input already contains explicit delays")
        case When() | Now():
            raise ReconstructionError(
                "input already contains when?/now! actions")
    for q in subprocs(p):
        _validate_source(q)


def erase_reconstructed(p: ProcExpr) -> ProcExpr:
    """Drop inserted nodes, recovering the pre-elaboration term."""
    match p:
        case Delay(origin=Origin.RECON, cont=cont) | When(cont=cont) \
                | Now(cont=cont):
            return erase_reconstructed(cont)
    q = map_subprocs(p, erase_reconstructed)
    match q:
        case Spawn(dest, proc, args, chans, Fwd(fwd_dest, src), True) \
                if src == dest:
            return TailCall(fwd_dest, proc, args, chans, p.pos)
    return q


# Heads that act on one channel or forward: with every type delayed, their
# goal can only take the delay step and records no failure.
_SILENT_HEADS = (Fwd, SendLabel, SendChan, RecvChan, Case, Close, Wait)


class _Elab:
    def __init__(self, ops: TypeOps, budget: int):
        self.ops = ops
        self.budget = budget
        self.done: dict = {}  # goal -> elaborated term or None
        self.bridges: dict[int, Fwd] = {}  # id(tail call) -> bridging forward
        self.best_depth = -1
        self._best = None  # (node or None, message or message thunk)

    def _give_up(self, depth: int, p, msg) -> None:
        """Record a failure at `depth`.  `msg` is a string or a function
        returning one; it is formatted only when `best_msg` is read."""
        if depth >= self.best_depth:
            self.best_depth = depth
            self._best = (p, msg)

    @property
    def best_msg(self) -> str:
        """The deepest failure, placed at its node when it has one."""
        if self._best is None:
            return "no goal attempted"
        p, msg = self._best
        if callable(msg):
            msg = msg()
        if p is None:
            return msg
        at = f" {p.pos[0]}:{p.pos[1]}" if p.pos else ""
        return f"{msg} [at {type(p).__name__}{at}]"

    # ------------------------------------------------------------------
    def elab(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
             offer: SessionType, depth: int) -> ProcExpr | None:
        """Elaborate one goal.  A goal whose only way on is a delay hands
        back the shifted goal, which this loop takes next at one budget
        unit per goal examined and one depth level per delay unit.  When
        the run ends, every goal it passed is stored with the result behind
        one merged delay."""
        run = None
        while True:
            if self.budget <= 0:
                raise ReconstructionError(
                    f"search budget exhausted; deepest goal: {self.best_msg}")
            self.budget -= 1
            key = (id(p), frozenset(ctx.items()), offer)
            if key in self.done:
                out = self.done[key]
                break
            out = self._goal(ctx, p, offer_chan, offer, depth)
            if type(out) is not tuple:
                self.done[key] = out
                break
            units, ctx, offer = out
            depth += units
            if run is None:
                run = []
            run.append((key, units))
        if run is not None:
            for key, units in reversed(run):
                if out is not None:
                    if type(out) is Delay and out.origin is Origin.RECON:
                        units += out.count
                        out = out.cont
                    out = Delay(units, Origin.RECON, out)
                self.done[key] = out
        return out

    # ------------------------------------------------------------------
    def _temporals(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
                   offer: SessionType, with_delay: bool):
        """Applicable temporal steps.  Steps aimed at a channel the head
        action needs come first, every action-free step precedes a delay.
        A delay's data is (units, shifted ctx, shifted offer): when it is
        the only step of a silent head, the goals of the next m - 1 units
        (m the least leading-delay count) would be forced the same way, so
        it shifts m units at once."""
        ops = self.ops
        out = []
        ob = ops.expose(offer)
        if isinstance(ob, Diamond):
            out.append(("now_offer", offer_chan, ob.inner))
        if isinstance(ob, Box) and all(ops.patient(t, "box") for t in ctx.values()):
            out.append(("when_offer", offer_chan, ob.inner))
        for y, ty in ctx.items():
            base = ops.expose(ty)
            if isinstance(base, Box):
                out.append(("now_ctx", y, base.inner))
            elif isinstance(base, Diamond):
                if ops.patient(offer, "diamond") and \
                        all(ops.patient(t, "box") for c, t in ctx.items() if c != y):
                    out.append(("when_ctx", y, base.inner))
        if len(out) > 1:
            # The head's own channels; a cut or a tick names none, and then
            # any channel may need attention.  A forward or a tail call has
            # been checked to name the offered channel.
            targets = own_chans(p) or (offer_chan, *ctx)
            out.sort(key=lambda c: c[1] not in targets)
        if with_delay:
            shifted = self._shift_all(ctx, offer)
            if shifted is not None:
                sctx, soff = shifted
                progress = soff is not offer or any(sctx[c] is not ctx[c]
                                                    for c in ctx)
                if progress:
                    units = 1
                    if not out and isinstance(p, _SILENT_HEADS):
                        # Every shift was defined and nothing is exposed,
                        # so every type has a leading delay.
                        units = min(ops.strip(t)[0]
                                    for t in (offer, *ctx.values()))
                        if units > 1:
                            sctx, soff = self._shift_all(ctx, offer, units)
                    out.append(("delay", None, (units, sctx, soff)))
        return out

    def _shift_all(self, ctx: Ctx, offer: SessionType, n: int = 1):
        ops = self.ops
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

    def _try_temporals(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
                       offer: SessionType, depth: int,
                       with_delay: bool = True):
        """The first temporal step that elaborates, or, when only the delay
        is left, its (units, ctx, offer) for `elab` to continue with."""
        for kind, y, data in self._temporals(ctx, p, offer_chan, offer,
                                             with_delay):
            if kind == "now_offer":
                sub = self.elab(ctx, p, offer_chan, data, depth + 1)
                if sub is not None:
                    return Now(offer_chan, sub)
            elif kind == "when_offer":
                sub = self.elab(ctx, p, offer_chan, data, depth + 1)
                if sub is not None:
                    return When(offer_chan, sub)
            elif kind == "now_ctx":
                ctx2 = dict(ctx)
                ctx2[y] = data
                sub = self.elab(ctx2, p, offer_chan, offer, depth + 1)
                if sub is not None:
                    return Now(y, sub)
            elif kind == "when_ctx":
                ctx2 = dict(ctx)
                ctx2[y] = data
                sub = self.elab(ctx2, p, offer_chan, offer, depth + 1)
                if sub is not None:
                    return When(y, sub)
            else:  # delay, always the last step
                return data
        return None

    def _bridge(self, p: TailCall) -> Fwd:
        """The forward bridging a tail call's declared offer to the wanted
        one, built once per call node: its fresh name depends only on the
        call's `dest` and `chans`, which are then the whole goal."""
        fwd = self.bridges.get(id(p))
        if fwd is None:
            fresh = p.dest + "'"
            while fresh in p.chans:
                fresh += "'"
            fwd = self.bridges[id(p)] = Fwd(p.dest, fresh, pos=p.pos)
        return fwd

    def _exposed(self, t: SessionType, want: type, chan: str, depth: int,
                 p: ProcExpr):
        """`t` exposed, if it is a `want`.  Otherwise None, and when `t` is
        exposed at another connective, the goal at `p` is recorded as
        failed."""
        base = self.ops.expose(t)
        if isinstance(base, want):
            return base
        if base is not None:
            self._give_up(depth, p, lambda: f"wrong protocol state on {chan} "
                          f"(expected {want.__name__}, found "
                          f"{fmt_type(base)})")
        return None

    # ------------------------------------------------------------------
    def _goal(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
              offer: SessionType, depth: int):
        ops = self.ops
        fail = self._give_up

        match p:
            case Delay(count, origin, cont):
                if origin is not Origin.TICK or count != 1:
                    raise ReconstructionError(
                        "input already contains explicit delays")
                shifted = self._shift_all(ctx, offer)
                if shifted is not None:
                    sub = self.elab(shifted[0], cont, offer_chan, shifted[1],
                                    depth + 1)
                    if sub is not None:
                        return Delay(1, Origin.TICK, sub, p.pos)
                else:
                    fail(depth, p, "a tick is not permitted here")
                return self._try_temporals(ctx, p, offer_chan, offer, depth,
                                           with_delay=False)

            case When() | Now():
                raise ReconstructionError(
                    "input already contains when?/now! actions")

            case Fwd(dest, src):
                if dest != offer_chan:
                    fail(depth, p, f"forward must provide {offer_chan}")
                    return None
                if src not in ctx:
                    fail(depth, p, f"forward source {src} is not available")
                    return None
                if len(ctx) != 1:
                    fail(depth, p, "forward leaves channels unconsumed")
                    return None
                if ops.type_equal(ctx[src], offer):
                    return p
                out = self._try_temporals(ctx, p, offer_chan, offer, depth)
                if out is None:
                    fail(depth, p, lambda: f"forwarded types differ (expected "
                         f"{fmt_type(offer)}, found {fmt_type(ctx[src])})")
                return out

            case SendLabel(chan, label, cont):
                if chan == offer_chan:
                    base = self._exposed(offer, Plus, chan, depth, p)
                    if base is not None:
                        nxt = branch_get(base.branches, label)
                        if nxt is None:
                            fail(depth, p, lambda: f"label {label} is not "
                                 f"offered by {fmt_type(offer)}")
                        else:
                            sub = self.elab(ctx, cont, offer_chan, nxt, depth + 1)
                            if sub is not None:
                                return SendLabel(chan, label, sub, p.pos)
                elif chan in ctx:
                    base = self._exposed(ctx[chan], With, chan, depth, p)
                    if base is not None:
                        nxt = branch_get(base.branches, label)
                        if nxt is None:
                            fail(depth, p,
                                 f"label {label} is not accepted on {chan}")
                        else:
                            ctx2 = dict(ctx)
                            ctx2[chan] = nxt
                            sub = self.elab(ctx2, cont, offer_chan, offer,
                                            depth + 1)
                            if sub is not None:
                                return SendLabel(chan, label, sub, p.pos)
                else:
                    fail(depth, p, f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Case(chan, branches):
                if chan == offer_chan:
                    base = self._exposed(offer, With, chan, depth, p)
                    if base is not None:
                        got = self._case_commit(ctx, branches, base, chan,
                                                offer_chan, offer, True, p, depth)
                        if got is not None:
                            return got
                elif chan in ctx:
                    base = self._exposed(ctx[chan], Plus, chan, depth, p)
                    if base is not None:
                        got = self._case_commit(ctx, branches, base, chan,
                                                offer_chan, offer, False, p, depth)
                        if got is not None:
                            return got
                else:
                    fail(depth, p, f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Close(chan):
                if chan != offer_chan:
                    fail(depth, p, f"close must act on {offer_chan}")
                    return None
                if self._exposed(offer, One, chan, depth, p) is not None:
                    if not ctx:
                        return p
                    fail(depth, p, "close with channels left in the context")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Wait(chan, cont):
                if chan not in ctx:
                    fail(depth, p, f"unknown channel {chan}")
                    return None
                if self._exposed(ctx[chan], One, chan, depth, p) is not None:
                    ctx2 = dict(ctx)
                    del ctx2[chan]
                    sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                    if sub is not None:
                        return Wait(chan, sub, p.pos)
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case SendChan(chan, payload, cont):
                if payload not in ctx:
                    fail(depth, p, f"unknown payload channel {payload}")
                    return None
                pt = ctx[payload]
                if chan == offer_chan:
                    base = self._exposed(offer, Tensor, chan, depth, p)
                    if base is not None and ops.type_equal(pt, base.left):
                        ctx2 = dict(ctx)
                        del ctx2[payload]
                        sub = self.elab(ctx2, cont, offer_chan, base.right,
                                        depth + 1)
                        if sub is not None:
                            return SendChan(chan, payload, sub, p.pos)
                    elif base is not None:
                        fail(depth, p, lambda: f"payload {payload} : "
                             f"{fmt_type(pt)} does not match "
                             f"{fmt_type(base.left)}")
                elif chan in ctx:
                    base = self._exposed(ctx[chan], Lolli, chan, depth, p)
                    if base is not None and ops.type_equal(pt, base.arg):
                        ctx2 = dict(ctx)
                        del ctx2[payload]
                        ctx2[chan] = base.cont
                        sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                        if sub is not None:
                            return SendChan(chan, payload, sub, p.pos)
                    elif base is not None:
                        fail(depth, p, lambda: f"payload {payload} : "
                             f"{fmt_type(pt)} does not match "
                             f"{fmt_type(base.arg)}")
                else:
                    fail(depth, p, f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case RecvChan(bind, chan, cont):
                if bind in ctx or bind == offer_chan:
                    fail(depth, p,
                         f"received channel name {bind} shadows a live channel")
                    return None
                if chan == offer_chan:
                    base = self._exposed(offer, Lolli, chan, depth, p)
                    if base is not None:
                        ctx2 = dict(ctx)
                        ctx2[bind] = base.arg
                        sub = self.elab(ctx2, cont, offer_chan, base.cont,
                                        depth + 1)
                        if sub is not None:
                            return RecvChan(bind, chan, sub, p.pos)
                elif chan in ctx:
                    base = self._exposed(ctx[chan], Tensor, chan, depth, p)
                    if base is not None:
                        ctx2 = dict(ctx)
                        ctx2[bind] = base.left
                        ctx2[chan] = base.right
                        sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                        if sub is not None:
                            return RecvChan(bind, chan, sub, p.pos)
                else:
                    fail(depth, p, f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Cut(dest, annot, body, cont):
                if dest in ctx or dest == offer_chan:
                    fail(depth, p, f"cut channel {dest} shadows a live channel")
                    return None
                used = free_chans(body) - {dest}
                if not used <= set(ctx):
                    fail(depth, p, f"cut body uses unknown channels "
                         f"{', '.join(sorted(used - set(ctx)))}")
                    return None
                ctx_body = {c: t for c, t in ctx.items() if c in used}
                ctx_cont = {c: t for c, t in ctx.items() if c not in used}
                eb = self.elab(ctx_body, body, dest, annot, depth + 1)
                if eb is not None:
                    ctx_cont = dict(ctx_cont)
                    ctx_cont[dest] = annot
                    ec = self.elab(ctx_cont, cont, offer_chan, offer, depth + 1)
                    if ec is not None:
                        return Cut(dest, annot, eb, ec, p.pos)
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Spawn(dest, proc, args, chans, cont, via):
                if dest in ctx or dest == offer_chan:
                    fail(depth, p,
                         f"spawned channel {dest} shadows a live channel")
                    return None
                ctx2 = self._consume(ctx, p, proc, chans, depth)
                if ctx2 is not None:
                    decl = ops.sig.decl(proc)
                    ctx2[dest] = decl.offer_type
                    sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                    if sub is not None:
                        return Spawn(dest, proc, args, chans, sub, via, p.pos)
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case TailCall(dest, proc, args, chans):
                if dest != offer_chan:
                    fail(depth, p, f"tail call must provide {offer_chan}")
                    return None
                if set(ctx) != set(chans):
                    fail(depth, p,
                         "tail call does not consume the context exactly")
                    return None
                ctx2 = self._consume(ctx, p, proc, chans, depth)
                if ctx2 is not None:
                    decl = ops.sig.decl(proc)
                    if ops.type_equal(decl.offer_type, offer):
                        return p
                    # Bridge the offered type through an explicit forward.
                    fwd = self._bridge(p)
                    best = self.best_depth, self._best
                    bridge = self.elab({fwd.src: decl.offer_type}, fwd,
                                       offer_chan, offer, depth + 1)
                    if bridge is not None:
                        return Spawn(fwd.src, proc, args, chans, bridge, True,
                                     p.pos)
                    # A failed bridge is the call's failure, not its
                    # forward's: the call names both offered types.
                    self.best_depth, self._best = best
                    fail(depth, p, lambda: f"offered type of {proc} "
                         f"({fmt_type(decl.offer_type)}) cannot be bridged "
                         f"to {fmt_type(offer)}")
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

        raise AssertionError(f"unknown process node {p!r}")

    # ------------------------------------------------------------------
    def _case_commit(self, ctx, branches, base, chan, offer_chan, offer,
                     on_offer: bool, p, depth: int):
        want = set(branch_labels(base.branches))
        have = {lab for lab, _ in branches}
        if want != have:
            self._give_up(depth, None, lambda: f"case on {chan} has branches "
                          f"{sorted(have)} but the protocol offers "
                          f"{sorted(want)}")
            return None
        d = dict(base.branches)
        out = []
        for lab, body in branches:
            if on_offer:
                sub = self.elab(dict(ctx), body, offer_chan, d[lab], depth + 1)
            else:
                ctx2 = dict(ctx)
                ctx2[chan] = d[lab]
                sub = self.elab(ctx2, body, offer_chan, offer, depth + 1)
            if sub is None:
                return None
            out.append((lab, sub))
        return Case(chan, tuple(out), p.pos)

    def _consume(self, ctx: Ctx, p: ProcExpr, proc: str, chans, depth: int):
        decl = self.ops.sig.decl(proc)
        if len(chans) != len(decl.ctx):
            self._give_up(depth, p, f"{proc} takes {len(decl.ctx)} channel(s), "
                          f"got {len(chans)}")
            return None
        if len(set(chans)) != len(chans):
            self._give_up(depth, p, "a channel is passed twice to a call")
            return None
        ctx2 = dict(ctx)
        for actual, (formal, want) in zip(chans, decl.ctx):
            if actual not in ctx:
                self._give_up(depth, p, f"unknown channel {actual}")
                return None
            got = ctx[actual]
            if not is_subtype(self.ops, got, want):
                self._give_up(depth, p, lambda: f"argument {actual} : "
                              f"{fmt_type(got)} is not a subtype of "
                              f"{fmt_type(want)} (parameter {formal} of "
                              f"{proc})")
                return None
            del ctx2[actual]
        return ctx2


def elaborate_process(ops: TypeOps, ctx: Ctx, p: ProcExpr, offer_chan: str,
                      offer_type: SessionType,
                      budget: int = 100_000) -> ProcExpr:
    """Insert delays/when?/now! so the result passes the explicit checker;
    raises ReconstructionError when no insertion exists."""
    _validate_source(p)
    engine = _Elab(ops, budget)
    out = engine.elab(dict(ctx), p, offer_chan, offer_type, 0)
    if out is None:
        raise ReconstructionError(
            f"no temporal elaboration exists; deepest failing goal: "
            f"{engine.best_msg}")
    return out


class FwdElaborator:
    """Reusable engine deciding whether `y:a |- x <- y :: (x:b)`
    reconstructs; failure memos carry over between queries, so deciding a
    whole universe of pairs stays cheap."""

    def __init__(self, ops: TypeOps, budget: int = 10_000_000):
        self._engine = _Elab(ops, budget)
        self._fwd = Fwd("x", "y")

    def check(self, a: SessionType, b: SessionType) -> bool:
        return self._engine.elab({"y": a}, self._fwd, "x", b, 0) is not None


def elaborate_signature(sig: Signature, ops: TypeOps | None = None,
                        budget: int = 100_000):
    """Elaborate every definition body.  Returns (new signature, errors)."""
    ops = ops or TypeOps(sig)
    out = Signature(dict(sig.typedefs), dict(sig.procdecls), {})
    errors: list[Exception] = []
    for name in sig.procdefs:
        try:
            dcl, ctx, offer = sig.def_goal(name)
            body = elaborate_process(ops, ctx, dcl.body, dcl.dest, offer,
                                     budget)
            out.procdefs[name] = ProcDef(
                name, [DefClause((), dcl.dest, dcl.chans, body, dcl.pos)])
        except (ReconstructionError, SessionTypeError) as e:
            errors.append(type(e)(f"in {name}: {e}"))
    return out, errors

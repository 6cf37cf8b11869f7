"""Time reconstruction: typecheck tick-annotated source with no explicit
temporal actions and elaborate it into an explicit program.

The search is driven by the head action of the process.  Between structural
steps it may insert a unit delay (shifting every channel), a now!/when? on
the offered channel, or a now!/when? on a used channel, subject to the same
side conditions the explicit checker enforces.  Choice points (now! against
delay, and so on) backtrack; failed goals are memoized; delays are placed as
late as possible by trying every action-free candidate before a delay.

Process invocations compare actual argument types against the declared ones
with the subtype relation; a tail call whose offered type differs from the
declared one is expanded into a spawn followed by a bridged forward.
"""

from __future__ import annotations

from .ast import (Box, Case, Close, Cut, DefClause, Delay, Diamond, Fwd, Lolli,
                  Now, One, Origin, Plus, ProcDef, ProcExpr, RecvChan,
                  SendChan, SendLabel, SessionType, Signature, Spawn, TailCall,
                  Tensor, Wait, When, With, branch_get, branch_labels,
                  free_chans)
from .errors import ReconstructionError, SessionTypeError
from .printer import fmt_type
from .subtyping import is_subtype
from .typeops import TypeOps

Ctx = dict[str, SessionType]


def _validate_source(p: ProcExpr) -> None:
    """Reconstruction input may carry ticks but no other temporal actions."""
    match p:
        case Delay(_, origin, cont):
            if origin is not Origin.TICK:
                raise ReconstructionError(
                    "input already contains explicit delays")
            _validate_source(cont)
        case When() | Now():
            raise ReconstructionError(
                "input already contains when?/now! actions")
        case Case(_, branches):
            for _, b in branches:
                _validate_source(b)
        case Cut(_, _, body, cont):
            _validate_source(body)
            _validate_source(cont)
        case Spawn(_, _, _, _, cont) | SendLabel(_, _, cont) | Wait(_, cont) \
                | SendChan(_, _, cont) | RecvChan(_, _, cont):
            _validate_source(cont)
        case _:
            pass


def merge_delays(p: ProcExpr) -> ProcExpr:
    """Collapse runs of reconstruction-inserted unit delays into one node."""
    match p:
        case Delay(c1, o1, Delay(c2, o2, cont)) if o1 is o2 is Origin.RECON:
            return merge_delays(Delay(c1 + c2, Origin.RECON, cont, p.pos))
        case Delay(count, origin, cont):
            return Delay(count, origin, merge_delays(cont), p.pos)
        case Case(chan, branches):
            return Case(chan, tuple((lab, merge_delays(b)) for lab, b in branches),
                        p.pos)
        case Cut(dest, annot, body, cont):
            return Cut(dest, annot, merge_delays(body), merge_delays(cont), p.pos)
        case Spawn(dest, proc, args, chans, cont, via):
            return Spawn(dest, proc, args, chans, merge_delays(cont), via, p.pos)
        case SendLabel(chan, label, cont):
            return SendLabel(chan, label, merge_delays(cont), p.pos)
        case Wait(chan, cont):
            return Wait(chan, merge_delays(cont), p.pos)
        case SendChan(chan, payload, cont):
            return SendChan(chan, payload, merge_delays(cont), p.pos)
        case RecvChan(bind, chan, cont):
            return RecvChan(bind, chan, merge_delays(cont), p.pos)
        case When(chan, cont):
            return When(chan, merge_delays(cont), p.pos)
        case Now(chan, cont):
            return Now(chan, merge_delays(cont), p.pos)
        case _:
            return p


def erase_reconstructed(p: ProcExpr) -> ProcExpr:
    """Drop inserted nodes, recovering the pre-elaboration term."""
    match p:
        case Delay(_, origin, cont) if origin is Origin.RECON:
            return erase_reconstructed(cont)
        case Delay(count, origin, cont):
            return Delay(count, origin, erase_reconstructed(cont), p.pos)
        case When(_, cont) | Now(_, cont):
            return erase_reconstructed(cont)
        case Spawn(dest, proc, args, chans, cont, via):
            body = erase_reconstructed(cont)
            if via and isinstance(body, Fwd) and body.src == dest:
                return TailCall(body.dest, proc, args, chans, p.pos)
            return Spawn(dest, proc, args, chans, body, via, p.pos)
        case Case(chan, branches):
            return Case(chan, tuple((lab, erase_reconstructed(b))
                                    for lab, b in branches), p.pos)
        case Cut(dest, annot, body, cont):
            return Cut(dest, annot, erase_reconstructed(body),
                       erase_reconstructed(cont), p.pos)
        case SendLabel(chan, label, cont):
            return SendLabel(chan, label, erase_reconstructed(cont), p.pos)
        case Wait(chan, cont):
            return Wait(chan, erase_reconstructed(cont), p.pos)
        case SendChan(chan, payload, cont):
            return SendChan(chan, payload, erase_reconstructed(cont), p.pos)
        case RecvChan(bind, chan, cont):
            return RecvChan(bind, chan, erase_reconstructed(cont), p.pos)
        case _:
            return p


class _Elab:
    def __init__(self, ops: TypeOps, budget: int):
        self.ops = ops
        self.budget = budget
        self.done: dict = {}  # goal -> elaborated term or None
        self.best_depth = -1
        self.best_msg = "no goal attempted"

    def _give_up(self, depth: int, msg: str) -> None:
        if depth >= self.best_depth:
            self.best_depth = depth
            self.best_msg = msg

    # ------------------------------------------------------------------
    def elab(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
             offer: SessionType, depth: int) -> ProcExpr | None:
        if self.budget <= 0:
            raise ReconstructionError(
                f"search budget exhausted; deepest goal: {self.best_msg}")
        self.budget -= 1
        key = (id(p), frozenset(ctx.items()), offer)
        if key in self.done:
            return self.done[key]
        out = self._goal(ctx, p, offer_chan, offer, depth)
        self.done[key] = out
        return out

    # ------------------------------------------------------------------
    def _temporals(self, ctx: Ctx, offer_chan: str, offer: SessionType,
                   targets: frozenset[str], with_delay: bool = True):
        """Applicable temporal steps.  Steps aimed at a channel the head
        action needs come first, every action-free step precedes a delay."""
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
        out.sort(key=lambda c: c[1] not in targets)
        if with_delay:
            shifted = self._shift_all(ctx, offer)
            if shifted is not None:
                sctx, soff = shifted
                progress = soff is not offer or any(sctx[c] is not ctx[c]
                                                    for c in ctx)
                if progress:
                    out.append(("delay", None, (sctx, soff)))
        return out

    def _shift_all(self, ctx: Ctx, offer: SessionType):
        ops = self.ops
        sctx: Ctx = {}
        for c, t in ctx.items():
            s = ops.shift_left(t)
            if s is None:
                return None
            sctx[c] = s
        soff = ops.shift_right(offer)
        if soff is None:
            return None
        return sctx, soff

    def _head_targets(self, ctx: Ctx, p: ProcExpr, offer_chan: str) -> frozenset[str]:
        match p:
            case SendLabel(chan, _, _) | Case(chan, _) | Close(chan) \
                    | Wait(chan, _) | When(chan, _) | Now(chan, _) \
                    | RecvChan(_, chan, _):
                return frozenset((chan,))
            case SendChan(chan, payload, _):
                return frozenset((chan, payload))
            case Fwd(_, src):
                return frozenset((src, offer_chan))
            case Spawn(_, _, _, chans, _):
                return frozenset(chans)
            case TailCall(_, _, _, chans):
                return frozenset(chans) | {offer_chan}
            case _:  # tick, cut: any channel may need attention
                return frozenset(ctx) | {offer_chan}

    def _try_temporals(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
                       offer: SessionType, depth: int,
                       with_delay: bool = True) -> ProcExpr | None:
        targets = self._head_targets(ctx, p, offer_chan)
        for kind, y, data in self._temporals(ctx, offer_chan, offer, targets,
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
            else:  # delay
                sctx, soff = data
                sub = self.elab(sctx, p, offer_chan, soff, depth + 1)
                if sub is not None:
                    return Delay(1, Origin.RECON, sub)
        return None

    # ------------------------------------------------------------------
    def _goal(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
              offer: SessionType, depth: int) -> ProcExpr | None:
        ops = self.ops

        def fail(msg: str) -> None:
            self._give_up(depth, f"{msg} [at {type(p).__name__}"
                          f"{' ' + str(p.pos) if p.pos else ''}]")

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
                    fail("a tick is not permitted here")
                return self._try_temporals(ctx, p, offer_chan, offer, depth,
                                           with_delay=False)

            case When() | Now():
                raise ReconstructionError(
                    "input already contains when?/now! actions")

            case Fwd(dest, src):
                if dest != offer_chan:
                    fail(f"forward must provide {offer_chan}")
                    return None
                if src not in ctx:
                    fail(f"forward source {src} is not available")
                    return None
                if set(ctx) != {src}:
                    fail("forward leaves channels unconsumed")
                    return None
                if ops.type_equal(ctx[src], offer):
                    return p
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case SendLabel(chan, label, cont):
                if chan == offer_chan:
                    base = ops.expose(offer)
                    if isinstance(base, Plus):
                        nxt = branch_get(base.branches, label)
                        if nxt is None:
                            fail(f"label {label} is not offered by "
                                 f"{fmt_type(offer)}")
                        else:
                            sub = self.elab(ctx, cont, offer_chan, nxt, depth + 1)
                            if sub is not None:
                                return SendLabel(chan, label, sub, p.pos)
                elif chan in ctx:
                    base = ops.expose(ctx[chan])
                    if isinstance(base, With):
                        nxt = branch_get(base.branches, label)
                        if nxt is None:
                            fail(f"label {label} is not accepted on {chan}")
                        else:
                            ctx2 = dict(ctx)
                            ctx2[chan] = nxt
                            sub = self.elab(ctx2, cont, offer_chan, offer,
                                            depth + 1)
                            if sub is not None:
                                return SendLabel(chan, label, sub, p.pos)
                else:
                    fail(f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Case(chan, branches):
                if chan == offer_chan:
                    base = ops.expose(offer)
                    if isinstance(base, With):
                        got = self._case_commit(ctx, branches, base, chan,
                                                offer_chan, offer, True, p, depth)
                        if got is not None:
                            return got
                elif chan in ctx:
                    base = ops.expose(ctx[chan])
                    if isinstance(base, Plus):
                        got = self._case_commit(ctx, branches, base, chan,
                                                offer_chan, offer, False, p, depth)
                        if got is not None:
                            return got
                else:
                    fail(f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Close(chan):
                if chan != offer_chan:
                    fail(f"close must act on {offer_chan}")
                    return None
                if isinstance(ops.expose(offer), One):
                    if not ctx:
                        return p
                    fail("close with channels left in the context")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Wait(chan, cont):
                if chan not in ctx:
                    fail(f"unknown channel {chan}")
                    return None
                if isinstance(ops.expose(ctx[chan]), One):
                    ctx2 = dict(ctx)
                    del ctx2[chan]
                    sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                    if sub is not None:
                        return Wait(chan, sub, p.pos)
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case SendChan(chan, payload, cont):
                if payload not in ctx:
                    fail(f"unknown payload channel {payload}")
                    return None
                pt = ctx[payload]
                if chan == offer_chan:
                    base = ops.expose(offer)
                    if isinstance(base, Tensor) and ops.type_equal(pt, base.left):
                        ctx2 = dict(ctx)
                        del ctx2[payload]
                        sub = self.elab(ctx2, cont, offer_chan, base.right,
                                        depth + 1)
                        if sub is not None:
                            return SendChan(chan, payload, sub, p.pos)
                    elif isinstance(base, Tensor):
                        fail(f"payload {payload} : {fmt_type(pt)} does not "
                             f"match {fmt_type(base.left)}")
                elif chan in ctx:
                    base = ops.expose(ctx[chan])
                    if isinstance(base, Lolli) and ops.type_equal(pt, base.arg):
                        ctx2 = dict(ctx)
                        del ctx2[payload]
                        ctx2[chan] = base.cont
                        sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                        if sub is not None:
                            return SendChan(chan, payload, sub, p.pos)
                    elif isinstance(base, Lolli):
                        fail(f"payload {payload} : {fmt_type(pt)} does not "
                             f"match {fmt_type(base.arg)}")
                else:
                    fail(f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case RecvChan(bind, chan, cont):
                if bind in ctx or bind == offer_chan:
                    fail(f"received channel name {bind} shadows a live channel")
                    return None
                if chan == offer_chan:
                    base = ops.expose(offer)
                    if isinstance(base, Lolli):
                        ctx2 = dict(ctx)
                        ctx2[bind] = base.arg
                        sub = self.elab(ctx2, cont, offer_chan, base.cont,
                                        depth + 1)
                        if sub is not None:
                            return RecvChan(bind, chan, sub, p.pos)
                elif chan in ctx:
                    base = ops.expose(ctx[chan])
                    if isinstance(base, Tensor):
                        ctx2 = dict(ctx)
                        ctx2[bind] = base.left
                        ctx2[chan] = base.right
                        sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                        if sub is not None:
                            return RecvChan(bind, chan, sub, p.pos)
                else:
                    fail(f"unknown channel {chan}")
                    return None
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case Cut(dest, annot, body, cont):
                if dest in ctx or dest == offer_chan:
                    fail(f"cut channel {dest} shadows a live channel")
                    return None
                used = free_chans(body) - {dest}
                if not used <= set(ctx):
                    fail(f"cut body uses unknown channels "
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
                    fail(f"spawned channel {dest} shadows a live channel")
                    return None
                ctx2 = self._consume(ctx, proc, chans, fail)
                if ctx2 is not None:
                    decl = ops.sig.decl(proc)
                    ctx2[dest] = decl.offer_type
                    sub = self.elab(ctx2, cont, offer_chan, offer, depth + 1)
                    if sub is not None:
                        return Spawn(dest, proc, args, chans, sub, via, p.pos)
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

            case TailCall(dest, proc, args, chans):
                if dest != offer_chan:
                    fail(f"tail call must provide {offer_chan}")
                    return None
                if set(ctx) != set(chans):
                    fail("tail call does not consume the context exactly")
                    return None
                ctx2 = self._consume(ctx, proc, chans, fail)
                if ctx2 is not None:
                    decl = ops.sig.decl(proc)
                    if ops.type_equal(decl.offer_type, offer):
                        return p
                    # Bridge the offered type through an explicit forward.
                    fresh = dest + "'"
                    while fresh in ctx or fresh == offer_chan:
                        fresh += "'"
                    bridge = self.elab({fresh: decl.offer_type},
                                       Fwd(dest, fresh, pos=p.pos), offer_chan,
                                       offer, depth + 1)
                    if bridge is not None:
                        return Spawn(fresh, proc, args, chans, bridge, True,
                                     p.pos)
                    fail(f"offered type of {proc} "
                         f"({fmt_type(decl.offer_type)}) cannot be bridged to "
                         f"{fmt_type(offer)}")
                return self._try_temporals(ctx, p, offer_chan, offer, depth)

        raise AssertionError(f"unknown process node {p!r}")

    # ------------------------------------------------------------------
    def _case_commit(self, ctx, branches, base, chan, offer_chan, offer,
                     on_offer: bool, p, depth: int):
        want = set(branch_labels(base.branches))
        have = {lab for lab, _ in branches}
        if want != have:
            self._give_up(depth, f"case on {chan} has branches "
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

    def _consume(self, ctx: Ctx, proc: str, chans, fail):
        decl = self.ops.sig.decl(proc)
        if len(chans) != len(decl.ctx):
            fail(f"{proc} takes {len(decl.ctx)} channel(s), got {len(chans)}")
            return None
        if len(set(chans)) != len(chans):
            fail("a channel is passed twice to a call")
            return None
        ctx2 = dict(ctx)
        for actual, (formal, want) in zip(chans, decl.ctx):
            if actual not in ctx:
                fail(f"unknown channel {actual}")
                return None
            if not is_subtype(self.ops, ctx[actual], want):
                fail(f"argument {actual} : {fmt_type(ctx[actual])} is not a "
                     f"subtype of {fmt_type(want)} (parameter {formal} of "
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
    return merge_delays(out)


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
    for name, pdef in sig.procdefs.items():
        decl = sig.procdecls[name].clauses[0]
        dcl = pdef.clauses[0]
        ctx = {actual: t for actual, (_, t) in zip(dcl.chans, decl.ctx)}
        try:
            if len(dcl.chans) != len(decl.ctx):
                raise SessionTypeError(
                    f"definition of {name} binds {len(dcl.chans)} channels, "
                    f"decl has {len(decl.ctx)}")
            body = elaborate_process(ops, ctx, dcl.body, dcl.dest,
                                     decl.offer_type, budget)
            out.procdefs[name] = ProcDef(
                name, [DefClause((), dcl.dest, dcl.chans, body, dcl.pos)])
        except (ReconstructionError, SessionTypeError) as e:
            errors.append(type(e)(f"in {name}: {e}"))
    return out, errors

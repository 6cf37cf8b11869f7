"""Time reconstruction: typecheck tick-annotated source with no explicit
temporal actions and elaborate it into an explicit program.

The search reads the explicit system's rules (`checker.rule`), driven by
the head action of the process.  When a rule stops, its kind says whether
a temporal step may help: a scope stop fails the goal, a shape stop is
recorded as the goal's failure and the temporal steps are tried, and a
wait stop (a type not yet exposed) tries them silently: only when no step
applies at all is it recorded, as the undefined delay says it
(`checker.delay_stop`), or as itself where a delay changes no type.
The temporal steps are a unit delay (shifting every channel), a now!/when?
on the offered channel, or a now!/when? on a used channel, under the side
conditions the explicit rules state.  Choice points (now! against delay,
and so on) backtrack; failed goals are memoized; a goal met again on its
own search path fails, and a failure that met one is not memoized, as
`is_subtype` does it; delays are placed as late as possible by trying
every action-free candidate before a delay.  A tick is the delay the cost
model asked for, so no further delay is tried there.

A delay is always the last candidate, so a goal that takes one returns what
its shifted goal returns behind one more delay unit: `_Elab.elab` follows a
run of delays in a loop and emits it as one merged delay node.  When the
head is a forward or acts on a single channel and every type is delayed,
the next goals are forced and fail silently until the least leading delay
runs out, so that silent run is taken in one jump.  A tail call's delay run
is jumped too (`_Elab._tail_run`): with the offer and every argument
delayed, the call fails and delays again until a type is exposed or, for
offered types with no []/<> head, until the offer's leading delays are the
declared offer's, where the bridge can meet.  Those goals are not silent,
so the jump records the failure of the run's last unit, and a goal a jump
passed counts as examined, as it would be in a unit-at-a-time search.  The
search budget counts the goals examined, a jump counting as one.

A call takes its arguments by the explicit rules' weak subtyping; a tail
call whose offered type differs from the declared one is expanded into a
spawn followed by a bridged forward.
"""

from __future__ import annotations

from .ast import (Box, Case, Close, DefClause, Delay, Diamond, Fwd, Now,
                  Origin, ProcDef, ProcExpr, RecvChan, SendChan, SendLabel,
                  SessionType, Signature, Spawn, TailCall, TypeName, Wait,
                  When, map_subprocs, own_chans, subprocs, with_subprocs)
from .checker import (SCOPE, SHAPE, WAIT, Stop, delay_stop, patience, rule,
                      shift_all)
from .errors import ReconstructionError, SessionTypeError
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

# Offered heads that may let a bridge meet at other units than the one
# where the leading delays agree, and the delay tower, which never meets.
_PATIENT = (Box, Diamond, TypeName)


class _Elab:
    def __init__(self, ops: TypeOps, budget: int):
        self.ops = ops
        self.budget = budget
        self.done: dict = {}  # goal -> elaborated term or None
        self.path: set = set()  # the goals open on the current search path
        self.cycles = 0  # how often a goal was met again on its path
        self.bridges: dict[int, Fwd] = {}  # id(tail call) -> bridging forward
        # The last goal of a tail call's jump -> the most units a jump to it
        # started before it.
        self.reached: dict = {}
        self.best_depth = -1
        self._best: tuple[ProcExpr, Stop] | None = None

    def _give_up(self, depth: int, p: ProcExpr, stop: Stop) -> None:
        """Record that the goal at `p` failed at `depth` with `stop`."""
        if depth >= self.best_depth:
            self.best_depth = depth
            self._best = (p, stop)

    @property
    def best_msg(self) -> str:
        """The deepest failure, as the explicit checker reports it."""
        if self._best is None:
            return "no goal attempted"
        p, stop = self._best
        return str(stop.error(p))

    # ------------------------------------------------------------------
    def elab(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
             offer: SessionType, depth: int) -> ProcExpr | None:
        """Elaborate one goal.  A goal whose only way on is a delay hands
        back the shifted goal, which this loop takes next at one budget
        unit per goal examined and one depth level per delay unit.  When
        the run ends, every goal it passed is stored with the result behind
        one merged delay.  A tail call's delay run is jumped here (see
        `_tail_run`).  A goal met again on its own path fails: the run's
        goals are on the path while it is open, and a failure that met such
        a cycle is not stored, as it holds only for this path."""
        run = jumps = None
        path = self.path
        while True:
            if self.budget <= 0:
                raise ReconstructionError(
                    f"search budget exhausted; deepest goal: {self.best_msg}")
            self.budget -= 1
            key = (id(p), frozenset(ctx.items()), offer)
            if key in self.done:
                out = self.done[key]
                break
            if key in path:
                self.cycles += 1
                out = None
                break
            seen_cycles = self.cycles
            units = None
            if type(p) is TailCall:
                units = self._tail_run(ctx, p, offer)
            if units is not None:
                land_ctx, land_offer = shift_all(self.ops, ctx, offer, units)
                land = (id(p), frozenset(land_ctx.items()), land_offer)
                passed = self.reached.get(land, 0)
                if passed >= units:
                    # An earlier jump to the same goal started further
                    # back, so it passed this one.
                    if run is None:
                        run = []
                    run.append((key, units, seen_cycles))
                    out = self.done[land]
                    break
            path.add(key)
            out = self._goal(ctx, p, offer_chan, offer, depth)
            if type(out) is not tuple:
                path.discard(key)
                if out is not None or self.cycles == seen_cycles:
                    self.done[key] = out
                break
            if units is not None:
                # The goals between fail and delay too; the last that no
                # earlier jump passed records its failure.
                last = units - 1 - passed
                if last > 0:
                    self._give_up(depth + last, p, self._tail_stop(
                        ctx, p, offer_chan, offer, last))
                if jumps is None:
                    jumps = []
                jumps.append((land, units))
                out = units, land_ctx, land_offer
            units, ctx, offer = out
            depth += units
            if run is None:
                run = []
            run.append((key, units, seen_cycles))
        if run is not None:
            for key, units, seen_cycles in reversed(run):
                path.discard(key)
                if out is not None:
                    if type(out) is Delay and out.origin is Origin.RECON:
                        units += out.count
                        out = out.cont
                    out = Delay(units, Origin.RECON, out)
                elif self.cycles != seen_cycles:
                    continue
                self.done[key] = out
        if jumps is not None:
            for land, units in jumps:
                if land in self.done and units > self.reached.get(land, 0):
                    self.reached[land] = units
        return out

    def _tail_run(self, ctx: Ctx, p: TailCall,
                  offer: SessionType) -> int | None:
        """The units a tail-call goal's delay run goes before anything can
        change, or None when it is not known.  With the offer and every
        argument delayed, the delay is the goal's only temporal step, and
        the goal fails at each unit until a type is exposed or, when
        neither offered type has a [] or <> head (or is a delay tower),
        until the offer keeps exactly the declared offer's leading delays:
        the one unit where the bridge can meet.  Each is a fixed unit
        ahead, so every goal of the run lands on the same one.  On the way
        the argument check may come and go; `_tail_stop` says how the last
        unit fails."""
        ops = self.ops
        n, base = ops.strip(offer)
        d, dbase = ops.strip(ops.sig.decl(p.proc).offer_type)
        if n == 0 or isinstance(base, _PATIENT) or \
                isinstance(dbase, _PATIENT):
            return None
        marks = [n, n - d]
        for t in ctx.values():
            a, abase = ops.strip(t)
            if a == 0:
                return None
            if not isinstance(abase, TypeName):
                marks.append(a)
        return min(k for k in marks if k > 0)

    def _tail_stop(self, ctx: Ctx, p: TailCall, offer_chan: str,
                   offer: SessionType, units: int) -> Stop:
        """What the tail-call goal `units` into its forced run records."""
        ctx, offer = shift_all(self.ops, ctx, offer, units)
        got = rule(self.ops, ctx, p, offer_chan, None)
        if type(got) is Stop:
            return got
        return self._bridge_stop(p, offer)

    def _bridge_stop(self, p: TailCall, offer: SessionType) -> Stop:
        return Stop(SHAPE, "def", f"offered type of {p.proc} cannot be "
                    f"bridged", offer, self.ops.sig.decl(p.proc).offer_type)

    # ------------------------------------------------------------------
    def _temporals(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
                   offer: SessionType, with_delay: bool):
        """Applicable temporal steps, or None when there are none because
        the delay is undefined.  A step is (Now or When, its channel, the
        type that channel takes, whether it is the offered one), or (None,
        None, data, False) for the delay.  Steps aimed at a channel the
        head action needs come first, every action-free step precedes a
        delay.  A delay's data is (units, shifted ctx, shifted offer): when
        it is the only step of a silent head, the goals of the next m - 1
        units (m the least leading-delay count) would be forced the same
        way, so it shifts m units at once."""
        ops = self.ops
        out = []
        ob = ops.expose(offer)
        if isinstance(ob, Diamond):
            out.append((Now, offer_chan, ob.inner, True))
        if isinstance(ob, Box) and patience(ops, ctx, "[]R") is None:
            out.append((When, offer_chan, ob.inner, True))
        for y, ty in ctx.items():
            base = ops.expose(ty)
            if isinstance(base, Box):
                out.append((Now, y, base.inner, False))
            elif isinstance(base, Diamond) and \
                    patience(ops, ctx, "<>L", y, offer) is None:
                out.append((When, y, base.inner, False))
        if len(out) > 1:
            # The head's own channels; a cut or a tick names none, and then
            # any channel may need attention.  A forward or a tail call has
            # been checked to name the offered channel.
            targets = own_chans(p) or (offer_chan, *ctx)
            out.sort(key=lambda c: c[1] not in targets)
        if with_delay:
            shifted = shift_all(ops, ctx, offer, 1)
            if shifted is None:
                return out or None
            sctx, soff = shifted
            if soff is not offer or any(sctx[c] is not ctx[c] for c in ctx):
                units = 1
                if not out and isinstance(p, _SILENT_HEADS):
                    # Every shift was defined and nothing is exposed, so
                    # every type has a leading delay.
                    units = min(ops.strip(t)[0]
                                for t in (offer, *ctx.values()))
                    if units > 1:
                        sctx, soff = shift_all(ops, ctx, offer, units)
                out.append((None, None, (units, sctx, soff), False))
        return out

    def _try_temporals(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
                       offer: SessionType, depth: int,
                       wait: Stop | None = None, with_delay: bool = True):
        """The first temporal step that elaborates, or, when only the delay
        is left, its (units, ctx, offer) for `elab` to continue with.  A
        goal stopped by `wait` that has no step at all fails as the delay
        does, or as `wait` says when a delay would change no type (an
        infinite delay tower)."""
        steps = self._temporals(ctx, p, offer_chan, offer, with_delay)
        if not steps:
            if wait is not None:
                self._give_up(depth, p, wait if steps == [] else
                              delay_stop(self.ops, ctx, offer, 1))
            return None
        for form, y, data, on_offer in steps:
            if form is None:  # the delay, always the last step
                return data
            if on_offer:
                sub = self.elab(ctx, p, offer_chan, data, depth + 1)
            else:
                sub = self.elab({**ctx, y: data}, p, offer_chan, offer,
                                depth + 1)
            if sub is not None:
                return form(y, sub)
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

    def _bridged(self, p: TailCall, offer_chan: str, offer: SessionType,
                 depth: int) -> ProcExpr | None:
        """A tail call that has taken its channels, offering `offer`: the
        call itself when it declares that type, else a spawn followed by a
        forward from the declared type to it."""
        declared = self.ops.sig.decl(p.proc).offer_type
        if self.ops.type_equal(declared, offer):
            return p
        fwd = self._bridge(p)
        best = self.best_depth, self._best
        bridge = self.elab({fwd.src: declared}, fwd, offer_chan, offer,
                           depth + 1)
        if bridge is not None:
            return Spawn(fwd.src, p.proc, p.args, p.chans, bridge, True, p.pos)
        # A failed bridge is the call's failure, not its forward's: the
        # call names both offered types.
        self.best_depth, self._best = best
        self._give_up(depth, p, self._bridge_stop(p, offer))
        return None

    # ------------------------------------------------------------------
    def _goal(self, ctx: Ctx, p: ProcExpr, offer_chan: str,
              offer: SessionType, depth: int):
        cls = type(p)
        if cls is When or cls is Now:
            raise ReconstructionError(
                "input already contains when?/now! actions")
        # A tail call's offered type is bridged here, not compared.
        got = rule(self.ops, ctx, p, offer_chan,
                   None if cls is TailCall else offer)
        # A tick is the delay itself: no other delay is tried in its place.
        with_delay = cls is not Delay
        if type(got) is Stop:
            if got.kind != WAIT:
                self._give_up(depth, p, got)
            if got.kind == SCOPE:
                return None
            return self._try_temporals(ctx, p, offer_chan, offer, depth,
                                       got if got.kind == WAIT else None,
                                       with_delay)
        if cls is TailCall:
            out = self._bridged(p, offer_chan, offer, depth)
            if out is not None:
                return out
        else:
            subs = []
            for sequent in got:
                sub = self.elab(*sequent, depth + 1)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return with_subprocs(p, subs) if subs else p
        return self._try_temporals(ctx, p, offer_chan, offer, depth,
                                   with_delay=with_delay)


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

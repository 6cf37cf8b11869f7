"""Timed multiset-rewriting interpreter with pluggable schedulers, rule
traces, and a configuration typechecker used to validate preservation and
progress empirically.

A configuration is a multiset of proc/msg objects, each providing one
channel at one timestamp.  Alongside the objects we track two interface
types per channel: the provider-side type and the consumer-side type.  Most
rules keep them identical; the rules with time slack (forwarding and the
now!/when? pairs) re-anchor one side, and the gap they open is exactly the
weak subtyping the configuration typing allows.

The send and receive rules come in one family each, the same rule for
every connective up to polarity.  A send (⊕S, &S, ⊗S, ⊸S, ◇S, □S) turns
the action into a message: a provider's message takes its own channel and
the provider goes on at a fresh one, a client's message takes a fresh
channel.  A receive (⊕C, &C, ⊗C, ⊸C, ◇C, □C, 1C) consumes a message: a
client takes its provider's message (positive) and goes on at the
message's next channel, a provider takes its client's message (negative)
and goes on providing the message's channel.  `_SENDS` and `_RECEIVES`
hold what differs per action: the rule names, the connective the sender's
local type must expose, the type after the message, and the message a
receive matches.

An object is a closure, as in an environment machine (the CEK machine,
Felleisen and Friedman 1987): it keeps the code it runs, a sub-term of a
definition body or a node a rule built, and an environment from the
code's free channel names to the run's channels.  The paper's rules
continue a process with a renamed term (`[c'/c]P` after a send, `[d/x]Q`
after a cut); here a step extends the environment instead, so its cost
does not depend on the size of the continuation.  `Obj.body` substitutes
the environment into the code when it is read, for traces, error
messages and equality.  Messages are built as concrete terms of two
nodes.  Each rule hands every object it builds the channels that object
uses, so no term a step builds is walked for them: a message's and a
forward's are read off the rule's own channels, and a continuation's off
the set its code keeps, through the environment.

`Engine.run` copies its input once and rewrites that private copy in
place, keeping the enabled rules in an index.  Each rule is local: a proc
fires on its own object and at most one adjacent message, and it reads
other objects only if they are messages.  So a step matches again only the
objects it produced and the readers of the messages it consumed or
produced: the procs at the channels such a message uses, and the client of
its channel, which the configuration records (session types are linear,
so a channel has one) for the index and the configuration check alike.
A delay, half the steps of a run under the rs cost model, rewrites its own
object alone and keeps its channels: it is matched again alone, and the
configuration links nothing for it.  An enabled rule is a record of its
body and the arguments the body fires with, so a match builds no closure.
The index also keeps the enabled channels in sorted lists of their
creation ranks, the order the schedulers go by, so a pick is a binary
search or a look-up rather than a scan of the configuration.
`run`'s `on_step` callback receives the live copy: it may read it but must
neither keep nor change it.  `Engine.step` stays functional: it leaves its
input unchanged and returns the next configuration.  A `Trace` writes each
step as the run fires it and keeps nothing of it.

`check_configuration` types a configuration against its interface.  Once it
has accepted a configuration of a run, that configuration logs its writes,
and the next check reads the log and decides from the channels a step
wrote alone, as preservation is proved one rule at a time.  That pass only
decides; a fault, or a doubt, goes to a check from empty state, which
words the first fault in configuration order, so a message never depends
on what was accepted before.  `Engine.run` hands the log of an input so
accepted to the copy it rewrites, so a run checked from its initial
configuration on is checked from empty state once.  Cycles among the channels are ruled out by
order labels, a provider's below its client's, which every rule keeps when
its new channel goes just before its client: a new edge is one comparison.
The check types an object's code under the code's own channel names, so a
checked step substitutes nothing, and it keeps the sequents it accepted
for such code at every level of their derivations: after a step the
continuation's typing is a sub-derivation of the one before, so it is
mostly not derived again.  Sequents naming run channels (a message, a tail
call's forward, a substituted body) are checked afresh and not kept, as
they never recur, so what is kept grows with the program, not with the
run.
"""

from __future__ import annotations

import json
import random
import re
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Callable, Optional

from .ast import (Box, Case, Close, Cut, Delay, Diamond, Fwd, Lolli, Now,
                  Plus, ProcExpr, RecvChan, SendChan, SendLabel, SessionType,
                  Signature, Spawn, TailCall, Tensor, Wait, When, With,
                  branch_get, bound_by, free_chans, next_type, rename_chans,
                  subprocs)
from .checker import Checker, check_process
from .errors import ConfigTypeError, RunError, StuckError
from .printer import fmt_proc, fmt_type
from .subtyping import is_weak_subtype
from .typeops import TypeOps


_ID: dict[str, str] = {}  # the identity environment; never written to
_NOTHING: frozenset[str] = frozenset()


@dataclass(init=False, eq=False, slots=True)
class Obj:
    """A proc or msg object providing `chan` at `time`: it runs `code` with
    each free channel name `x` of the code standing for the run's channel
    `env.get(x, x)`.  `Obj(kind, chan, time, body)` builds one from a
    concrete term, with the identity environment, so a message's body is
    its code.  Equality is on (kind, chan, time, body), whatever environment
    builds the body."""
    kind: str  # "proc" | "msg"
    chan: str
    time: int
    code: ProcExpr
    env: dict[str, str]  # never written to once the object is built
    # The run's channels the object uses (its code's free channels through
    # the environment, less its own), which a caller may pass in; then the
    # concrete term and the object's text, each made on its first read.
    used: frozenset[str] = field(init=False, repr=False)
    body: ProcExpr = field(init=False, repr=False)
    text: str = field(init=False, repr=False)

    def __init__(self, kind: str, chan: str, time: int, code: ProcExpr,
                 env: dict[str, str] = _ID, used: frozenset[str] | None = None):
        self.kind, self.chan, self.time, self.code, self.env = \
            kind, chan, time, code, env
        if not env:  # a concrete term is its own body
            self.body = code
        if used is None:
            used = free_chans(code)
            if env:
                used = frozenset([env.get(x, x) for x in used])
            used = used - {chan}
        self.used = used

    def __getattr__(self, name: str):
        """Compute `body` or `text` on its first read, and keep it."""
        if name == "body":
            value = self.body = rename_chans(self.code, self.env)
        elif name == "text":
            body = fmt_proc(self.body).replace("\n", " ")
            body = body.replace("% reconstructed", "")
            body = re.sub(r"\s+", " ", body).strip()
            value = self.text = f"{self.kind}({self.chan}, {self.time}, {body})"
        else:
            raise AttributeError(name)
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, Obj):
            return NotImplemented
        return (self.kind, self.chan, self.time, self.body) == \
            (other.kind, other.chan, other.time, other.body)


class Trace:
    """The rules a run fires, written as it fires them: `add` renders a step
    and writes it to each sink given, to `text` as the line `rule: consumed
    -> produced` and to `jsonl` as a JSON object on a line.  An object
    keeps its text (`Obj.text`), so each is rendered once.  With no sink
    nothing is rendered and the trace only counts the steps."""

    def __init__(self, text: IO[str] | None = None,
                 jsonl: IO[str] | None = None):
        self.text, self.jsonl = text, jsonl
        self.count = 0  # steps added

    def add(self, rule: str, consumed: list[Obj], produced: list[Obj]) -> None:
        self.count += 1
        if self.text is None and self.jsonl is None:
            return
        old = [o.text for o in consumed]
        new = [o.text for o in produced]
        if self.text is not None:
            self.text.write(f"{rule}: {', '.join(old)} -> "
                            f"{', '.join(new) or '(nothing)'}\n")
        if self.jsonl is not None:
            self.jsonl.write(json.dumps(
                {"rule": rule, "consumed": old, "produced": new}) + "\n")


@dataclass
class Configuration:
    """The objects of a run by the channel each provides.  Channel order is
    the key order of `objs`, which is creation order: a fresh channel is
    added at the end, a rule replaces the object at a surviving channel in
    place, and a dead channel is deleted.  `rank` holds that order as a
    number, fixed when a channel is first put: of two live channels, the
    one created first has the lower rank.

    `client` maps a channel to the channel of the object that uses it.  It
    is built from `objs` in order, and a write unlinks the object it
    replaces or drops before it links the new one, never overwriting: of
    two objects using one channel, the first linked keeps it.  An object
    that replaces one using the same channels (a delay's) is not linked
    again.

    The maps change only through `put`, `drop`, `set_ptype` and `set_ctype`.
    Once a check with a cache accepts the configuration, `log` holds what
    they wrote since: the object each written channel held before (None if
    new), and the channels whose provider and consumer type was written."""
    objs: dict[str, Obj]
    counter: int
    ptypes: dict[str, SessionType]  # provider-side interface, absolute
    ctypes: dict[str, SessionType]  # consumer-side interface, absolute
    log: tuple | None = field(default=None, compare=False, repr=False)
    client: dict[str, str] = field(init=False, compare=False, repr=False)
    rank: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.client = {}
        self.rank = {}
        self._ranked = 0  # the rank of the next channel put
        for chan, obj in self.objs.items():
            self._rank(chan)
            self._link(chan, obj)

    @property
    def order(self) -> list[str]:
        """The provided channels in creation order."""
        return list(self.objs)

    def copy(self) -> "Configuration":
        return Configuration(dict(self.objs), self.counter, dict(self.ptypes),
                             dict(self.ctypes))

    def _rank(self, chan: str) -> None:
        self.rank[chan] = self._ranked
        self._ranked += 1

    def _link(self, chan: str, obj: Obj) -> None:
        for y in obj.used:
            self.client.setdefault(y, chan)

    def _unlink(self, chan: str, old: Obj) -> None:
        for y in old.used:
            if self.client.get(y) == chan:
                del self.client[y]

    def _written(self, chan: str) -> Obj | None:
        """Log `chan` as written; returns the object it holds."""
        old = self.objs.get(chan)
        if self.log is not None:
            self.log[0].setdefault(chan, old)
        return old

    def put(self, obj: Obj, ptype: SessionType | None = None) -> None:
        """Place `obj` at its channel; given `ptype`, both sides of the
        channel's interface are set to it."""
        chan = obj.chan
        old = self._written(chan)
        if old is None:
            self._rank(chan)
            self._link(chan, obj)
        elif old.used != obj.used:
            self._unlink(chan, old)
            self._link(chan, obj)
        self.objs[chan] = obj
        if ptype is not None:
            if self.log is not None:
                self.log[1][chan] = self.log[2][chan] = None
            self.ptypes[chan] = self.ctypes[chan] = ptype

    def drop(self, chan: str) -> None:
        """Delete a dead channel: its object, its rank and its interface."""
        self._unlink(chan, self._written(chan))
        del self.objs[chan], self.rank[chan]
        self.ptypes.pop(chan, None)
        self.ctypes.pop(chan, None)

    def set_ptype(self, chan: str, t: SessionType) -> None:
        if self.log is not None:
            self.log[1][chan] = None
        self.ptypes[chan] = t

    def set_ctype(self, chan: str, t: SessionType) -> None:
        if self.log is not None:
            self.log[2][chan] = None
        self.ctypes[chan] = t


# ---------------------------------------------------------------------------
# Construction

_CHAN_RE = re.compile(r"^c(\d+)$")


def _fresh_floor(sig: Signature) -> int:
    """One past the largest `c<k>` channel name a program mentions: every
    channel in a body is free in it or bound inside it."""
    names: set[str] = set()
    for pd in sig.procdecls.values():
        for cl in pd.clauses:
            names.add(cl.offer_chan)
            names.update(c for c, _ in cl.ctx)
    for pdef in sig.procdefs.values():
        for cl in pdef.clauses:
            names.add(cl.dest)
            names.update(cl.chans)
            names |= free_chans(cl.body)
            todo = [cl.body]
            while todo:
                p = todo.pop()
                names.update(bound_by(p))
                todo.extend(subprocs(p))
    floor = 0
    for n in names:
        m = _CHAN_RE.match(n)
        if m:
            floor = max(floor, int(m.group(1)) + 1)
    return floor


def init_config(sig: Signature, main: str) -> Configuration:
    """A single process at time 0 making a tail call to `main`."""
    if main not in sig.procdecls:
        raise RunError(f"unknown process '{main}'")
    decl = sig.decl(main)
    if decl.ctx:
        raise RunError(f"'{main}' needs channels {[c for c, _ in decl.ctx]}; "
                       f"only context-free processes can be run")
    counter = _fresh_floor(sig)
    root = f"c{counter}"
    obj = Obj("proc", root, 0, TailCall(root, main, (), ()), _ID, _NOTHING)
    return Configuration({root: obj}, counter + 1,
                         {root: decl.offer_type}, {root: decl.offer_type})


# ---------------------------------------------------------------------------
# Schedulers

class RoundRobin:
    """Cycles over the enabled channels in creation order: it takes the
    first after the one it fired last, or the first of all when that one is
    gone."""

    def __init__(self):
        self._last: Optional[str] = None

    def pick(self, config: Configuration, candidates: "_Index"):
        ranks = candidates.ranks
        if not ranks:
            return None
        last = config.rank.get(self._last)
        i = 0 if last is None else bisect_right(ranks, last)
        choice = candidates.at[ranks[i] if i < len(ranks) else ranks[0]]
        self._last = choice
        return candidates[choice]


class SeededRandom:
    """Draws an enabled channel uniformly, as `random.choice` draws from the
    list of them in creation order."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def pick(self, config: Configuration, candidates: "_Index"):
        if not candidates:
            return None
        return candidates[candidates.at[self._rng.choice(candidates.ranks)]]


class TimeSynchronous:
    """Exhausts communication at the current time front before letting any
    process advance its clock: the earliest created channel whose rule is
    not a delay goes first, else the delayer at the earliest time, the
    earliest created of those."""

    def pick(self, config: Configuration, candidates: "_Index"):
        if not candidates:
            return None
        now, later = candidates.sync_views()
        rank = now[0] if now else later[0][1]
        return candidates[candidates.at[rank]]


def make_scheduler(name: str, seed: int = 0):
    if name == "rr":
        return RoundRobin()
    if name == "rand":
        return SeededRandom(seed)
    if name == "sync":
        return TimeSynchronous()
    raise RunError(f"unknown scheduler '{name}'")


# ---------------------------------------------------------------------------
# One rewriting step

@dataclass(slots=True)
class _Rule:
    """An enabled rule: its name, the objects it consumes as a trace shows
    them, and its body with the arguments the body takes after the
    configuration."""
    name: str
    consumed: list[Obj]
    body: Callable[..., list[Obj]]
    args: tuple

    def apply(self, config: Configuration) -> list[Obj]:
        """Rewrite `config` in place; returns the objects written, in the
        configuration's order."""
        return self.body(config, *self.args)


@dataclass(frozen=True)
class _Send:
    """One side of a send rule: its name, the connective the sender's local
    view of the channel must expose, the error if it does not, and the type
    after the message."""
    name: str
    shape: type
    error: str  # follows the channel's name
    after: Callable[[SessionType, ProcExpr], SessionType]


def _chosen(t: SessionType, body: SendLabel) -> SessionType:
    return branch_get(t.branches, body.label)


# The send rules by the action's class: the provider's side, where the
# message takes the provider's own channel, then the client's side, where it
# takes a fresh one.
_SENDS = {
    SendLabel: (_Send("⊕S", Plus, "is not an internal choice", _chosen),
                _Send("&S", With, "is not an external choice", _chosen)),
    SendChan: (_Send("⊗S", Tensor, "does not send a channel here",
                     lambda t, _: t.right),
               _Send("⊸S", Lolli, "does not receive a channel here",
                     lambda t, _: t.cont)),
    Now: (_Send("◇S", Diamond, "is not an eventually here",
                lambda t, _: t.inner),
          _Send("□S", Box, "is not an always here", lambda t, _: t.inner)),
}


def _at(pos: tuple[int, int] | None, msg: str) -> str:
    """`msg` prefixed with a source line:col, when there is one."""
    return msg if pos is None else f"{pos[0]}:{pos[1]}: {msg}"


def _message(act: ProcExpr, env: dict[str, str], time: int,
             cont: Fwd) -> Obj:
    """The message a send leaves at `cont.dest`: the action `act` with its
    channels mapped through `env`, continued by `cont`.  The action's
    channel is the message's own or `cont.src`, so the message uses
    `cont.src` and the channel it sends, if any."""
    at, used = cont.dest, (cont.src,)
    match act:
        case SendLabel(chan, label, _):
            body = SendLabel(env.get(chan, chan), label, cont)
        case SendChan(chan, payload, _):
            payload = env.get(payload, payload)
            body = SendChan(env.get(chan, chan), payload, cont)
            if payload != at:
                used = (cont.src, payload)
        case Now(chan, _):
            body = Now(env.get(chan, chan), cont)
        case _:
            raise AssertionError(f"not a send action: {act!r}")
    return Obj("msg", at, time, body, _ID, frozenset(used))


def _renamed(used: frozenset[str], old: str, new: str,
             own: str) -> frozenset[str]:
    """The channels a message at `own` uses, given `used`, those it used
    before its channel `old` was renamed `new`."""
    if old in used:
        used = used - {old} | {new}
    return used - {own} if own in used else used


# The receive rules by the action's class: the class of the message it
# takes, and the rule's name when a client takes its provider's message
# (positive) and when a provider takes its client's (negative).  Only a
# provider closes, so wait has no negative rule.
_RECEIVES = {Case: (SendLabel, "⊕C", "&C"), RecvChan: (SendChan, "⊗C", "⊸C"),
             When: (Now, "◇C", "□C"), Wait: (Close, "1C", None)}


class _Index(dict):
    """The enabled rules of one configuration, by channel, kept current
    while rules rewrite it in place.

    Each rule is local: a proc fires on its own object and on at most one
    adjacent message.  Besides the proc, `Engine._rule_for` reads the
    object at a channel the proc uses (the provider's message a client
    receives or a forward passes up) and the object at the proc's client
    (the message a client sent to act on it, or one a forward passes down),
    each only if it is a message.  So a step can enable or disable another
    proc only through a message it consumed or produced.  After a step,
    only the objects at the channels it consumed or produced are matched
    again, and for each message `m` it consumed or produced, the objects
    at the channels `m` uses (those reading `m` as their client) and the
    client of `m.chan` (the one reading `m` as its provider's).  Each
    firing updates the match state instead of rebuilding it, and
    re-matches only the patterns that read what it changed, as in Rete
    (Forgy 1982).

    The schedulers read the enabled channels in creation order, from
    sorted lists of their ranks (`Configuration.rank`) that a match keeps
    as a channel's rule appears, changes or goes.  `ranks` holds them all,
    `at` maps a rank back to its channel and `ranked` an enabled channel to
    its rank.  Time-synchronous reads two more, which `sync_views` builds
    on its first call and matches keep from then on, so runs under the
    other schedulers do not pay for them: `now`, the ranks of the channels
    whose rule is not a delay, and `later`, the delayers as (time, rank).
    `synced` maps each enabled channel to its entry in one of the two.  So
    a pick is a binary search or a look-up, whatever the size of the
    configuration."""

    def __init__(self, engine: "Engine", config: Configuration):
        super().__init__()
        self.engine = engine
        self.config = config
        self.ranks: list[int] = []
        self.at: dict[int, str] = {}
        self.ranked: dict[str, int] = {}
        self.synced: dict[str, int | tuple[int, int]] | None = None
        self.now: list[int] = []
        self.later: list[tuple[int, int]] = []
        for c in config.objs:
            self._match(c)

    def _match(self, chan: str) -> None:
        config = self.config
        o = config.objs.get(chan)
        rule = None if o is None or o.kind != "proc" else self.engine._rule_for(
            config, o)
        # A channel keeps its rank while it lives, and the step that drops
        # it matches it again.
        rank = self.ranked.get(chan)
        if rule is None:
            if rank is not None:
                del self[chan], self.ranked[chan], self.at[rank]
                del self.ranks[bisect_left(self.ranks, rank)]
                if self.synced is not None:
                    self._sync(chan, None)
            return
        self[chan] = rule
        if rank is None:
            rank = self.ranked[chan] = config.rank[chan]
            insort(self.ranks, rank)
            self.at[rank] = chan
        if self.synced is not None:
            self._sync(chan, (o.time, rank) if rule.name == "○C" else rank)

    def _sync(self, chan: str, key: int | tuple[int, int] | None) -> None:
        """File `chan` in time-synchronous's views under `key`: its rank in
        `now`, or (time, rank) in `later` if it delays, or, for None, in
        neither."""
        was = self.synced.get(chan)
        if key == was:
            return
        if was is not None:
            view = self.later if isinstance(was, tuple) else self.now
            del view[bisect_left(view, was)]
        if key is None:
            del self.synced[chan]
        else:
            self.synced[chan] = key
            insort(self.later if isinstance(key, tuple) else self.now, key)

    def sync_views(self) -> tuple[list[int], list[tuple[int, int]]]:
        """`now` and `later`, kept current from the first call on."""
        if self.synced is None:
            self.synced = {}
            objs = self.config.objs
            for chan, rule in self.items():
                rank = self.ranked[chan]
                self._sync(chan, (objs[chan].time, rank) if rule.name == "○C"
                           else rank)
        return self.now, self.later

    def fire(self, rule: _Rule) -> list[Obj]:
        """Apply `rule` in place and match again the objects that read what
        it wrote; returns the objects it produced."""
        produced = rule.apply(self.config)
        if rule.name == "○C":  # a delay writes one proc at its own channel
            self._match(produced[0].chan)
            return produced
        near: set[str] = set()
        client = self.config.client
        for o in chain(rule.consumed, produced):
            near.add(o.chan)
            if o.kind == "msg":
                near |= o.used
                if o.chan in client:
                    near.add(client[o.chan])
        for c in near:
            self._match(c)
        return produced


class Engine:
    def __init__(self, sig: Signature, ops: TypeOps | None = None):
        self.sig = sig
        self.ops = ops or TypeOps(sig)
        self._live: _Index | None = None  # index of the copy `run` rewrites

    # -- helpers ------------------------------------------------------------
    def _fresh(self, config: Configuration) -> str:
        name = f"c{config.counter}"
        config.counter += 1
        return name

    # -- enabled-rule discovery ----------------------------------------------
    def enabled(self, config: Configuration) -> _Index:
        """For each proc object that can fire, its unique rule instance: the
        index of the copy a `run` is rewriting, built from scratch for any
        other configuration."""
        live = self._live
        if live is not None and live.config is config:
            return live
        return _Index(self, config)

    def _rule_for(self, config: Configuration, o: Obj) -> Optional[_Rule]:
        code, env = o.code, o.env
        match code:
            case Delay():  # half the steps of a run under rs
                return _Rule("○C", [o], self._delay, (o,))
            case SendLabel() | SendChan() | Now():
                side = _SENDS[type(code)][env.get(code.chan, code.chan)
                                          != o.chan]
                return _Rule(side.name, [o], self._send, (o, side))
            case Close(_):
                return _Rule("1S", [o], self._close, (o,))
            case Cut():
                return _Rule("cutC", [o], self._cut, (o,))
            case Spawn() | TailCall():
                return _Rule("defC", [o], self._def, (o,))
            case Case() | RecvChan() | When() | Wait():
                sent, pos, neg = _RECEIVES[type(code)]
                chan = env.get(code.chan, code.chan)
                m = config.objs.get(config.client.get(chan) if chan == o.chan
                                    else chan)
                if m is None or m.kind != "msg" \
                        or not isinstance(m.code, sent) \
                        or m.code.chan != chan or m.time < o.time \
                        or m.time > o.time and not isinstance(code, When):
                    return None
                if chan == o.chan:
                    return _Rule(neg, [o, m], self._receive, (o, m))
                return _Rule(pos, [m, o], self._receive, (o, m))
            case Fwd(_, src):
                m = config.objs.get(env.get(src, src))
                if m is not None and m.kind == "msg" and m.time >= o.time:
                    return _Rule("id⁺C", [m, o], self._fwd_up, (o, m))
                m = config.objs.get(config.client.get(o.chan))
                if m is not None and m.kind == "msg" and o.time <= m.time:
                    return _Rule("id⁻C", [o, m], self._fwd_down, (o, m))
        return None

    # -- rule bodies ----------------------------------------------------------
    # Each rewrites the configuration in place and returns the objects it
    # wrote, in the configuration's order.  Each hands every object it builds
    # the channels that object uses, where it knows them without a walk of
    # the object's term: a message's and a forward's, and a delay's, which
    # are those of the object delayed.
    # Channels keep their tracked interfaces for as long as they live, so a
    # rule replaces the object at a surviving channel in place and only
    # drops channels that die.
    # Where the paper continues with a renamed term, a rule continues with
    # the sub-term under an extended environment.

    def _send(self, config: Configuration, o: Obj, side: _Send) -> list[Obj]:
        # A provider's message takes its own channel and the provider goes
        # on at a fresh one; a client's message takes a fresh channel, which
        # the client goes on using.
        code, env = o.code, o.env
        chan = env.get(code.chan, code.chan)
        fresh = self._fresh(config)
        if chan == o.chan:
            view = self.ops.shift_right_n(config.ptypes[chan], o.time)
        else:
            view = self.ops.shift_left_n(config.ctypes[chan], o.time)
        if view is None:
            raise RunError(_at(code.pos, f"interface of {chan} undefined at "
                               f"its own time"))
        base = self.ops.expose(view)
        if not isinstance(base, side.shape):
            raise RunError(_at(code.pos, f"{chan} {side.error}"))
        nxt = next_type(o.time, side.after(base, code))
        cont = {**env, code.chan: fresh}
        if chan == o.chan:
            config.put(_message(code, env, o.time, Fwd(chan, fresh)))
            config.put(Obj("proc", fresh, o.time, code.cont, cont), nxt)
        else:
            config.put(Obj("proc", o.chan, o.time, code.cont, cont))
            config.put(_message(code, env, o.time, Fwd(fresh, chan)), nxt)
        return [config.objs[o.chan], config.objs[fresh]]

    def _close(self, config: Configuration, o: Obj) -> list[Obj]:
        code = o.code
        chan = o.env.get(code.chan, code.chan)
        msg = Obj("msg", o.chan, o.time, Close(chan, code.pos), _ID,
                  _NOTHING if chan == o.chan else frozenset((chan,)))
        config.put(msg)
        return [msg]

    def _cut(self, config: Configuration, o: Obj) -> list[Obj]:
        code = o.code
        assert isinstance(code, Cut)
        fresh = self._fresh(config)
        env = {**o.env, code.dest: fresh}
        config.put(Obj("proc", o.chan, o.time, code.cont, env))
        config.put(Obj("proc", fresh, o.time, code.body, env),
                   next_type(o.time, code.annot))
        return [config.objs[o.chan], config.objs[fresh]]

    def _def(self, config: Configuration, o: Obj) -> list[Obj]:
        code, env = o.code, o.env
        assert isinstance(code, (Spawn, TailCall))
        proc = code.proc
        chans = [env.get(c, c) for c in code.chans]
        decl = self.sig.decl(proc)
        if proc not in self.sig.procdefs:
            raise RunError(_at(code.pos,
                               f"process '{proc}' has no definition"))
        dcl = self.sig.procdefs[proc].clauses[0]
        fresh = self._fresh(config)
        spawned = {dcl.dest: fresh, **dict(zip(dcl.chans, chans))}
        # The spawned body consumes its arguments at the declared types.
        for actual, (_, want) in zip(chans, decl.ctx):
            config.set_ctype(actual, next_type(o.time, want))
        if isinstance(code, Spawn):
            cont = Obj("proc", o.chan, o.time, code.cont,
                       {**env, code.dest: fresh})
        else:
            cont = Obj("proc", o.chan, o.time, Fwd(o.chan, fresh), _ID,
                       frozenset((fresh,)))
        config.put(cont)
        config.put(Obj("proc", fresh, o.time, dcl.body, spawned),
                   next_type(o.time, decl.offer_type))
        return [cont, config.objs[fresh]]

    def _delay(self, config: Configuration, o: Obj) -> list[Obj]:
        code = o.code
        assert isinstance(code, Delay)
        if not isinstance(code.count, int):
            raise RunError(_at(code.pos, "delay with a non-ground count"))
        cont = code.cont if code.count == 1 else \
            Delay(code.count - 1, code.origin, code.cont)
        # Same environment, and a delay's free channels are its cont's.
        later = Obj(o.kind, o.chan, o.time + 1, cont, o.env, o.used)
        config.put(later)
        return [later]

    def _receive(self, config: Configuration, o: Obj, m: Obj) -> list[Obj]:
        # A client takes its provider's message (positive) and goes on at the
        # message's next channel; a provider takes its client's message
        # (negative) and goes on providing the message's channel.  Either
        # jumps to the message's time, later than its own only for when?.
        mb, code, env = m.code, o.code, o.env
        if env.get(code.chan, code.chan) == o.chan:
            at = nxt = m.chan
            config.drop(o.chan)
        else:  # a close leaves no next channel
            at, nxt = o.chan, None if isinstance(mb, Close) else mb.cont.src
            config.drop(m.chan)
        cont = dict(code.branches)[mb.label] if isinstance(code, Case) \
            else code.cont
        sub = {} if nxt is None else {code.chan: nxt}
        if isinstance(code, RecvChan):
            sub[code.bind] = mb.payload
        proc = Obj("proc", at, m.time, cont, {**env, **sub} if sub else env)
        self._reanchor(config, proc, o.time, m.time, nxt, code.pos)
        config.put(proc)
        return [proc]

    def _fwd_up(self, config: Configuration, o: Obj, m: Obj) -> list[Obj]:
        # id+C: message travels up through the forward: msg(d), fwd c<-d.
        ptype = config.ptypes[m.chan]
        config.drop(m.chan)
        msg = Obj("msg", o.chan, m.time, rename_chans(m.body, {m.chan: o.chan}),
                  _ID, _renamed(m.used, m.chan, o.chan, o.chan))
        config.put(msg)
        config.set_ptype(o.chan, ptype)
        return [msg]

    def _fwd_down(self, config: Configuration, o: Obj, m: Obj) -> list[Obj]:
        # id-C: the sole client of c is a message; redirect it to d.
        code = o.code
        assert isinstance(code, Fwd)
        src = o.env.get(code.src, code.src)
        ctype = config.ctypes[o.chan]
        config.drop(o.chan)
        msg = Obj("msg", m.chan, m.time, rename_chans(m.body, {o.chan: src}),
                  _ID, _renamed(m.used, o.chan, src, m.chan))
        config.put(msg)
        config.set_ctype(src, ctype)
        return [msg]

    def _reanchor(self, config: Configuration, proc: Obj, old_time: int,
                  new_time: int, skip: str | None, pos) -> None:
        """A process jumped from old_time to new_time by the receive at
        `pos`: re-anchor its channels but `skip` so their local views are
        preserved (this is where the weak-subtyping slack of the
        configuration typing comes from)."""
        if new_time == old_time:
            return
        for y in proc.used - {skip}:
            local = self.ops.shift_left_n(config.ctypes[y], old_time)
            if local is None:
                raise RunError(_at(pos, f"cannot re-anchor {y}"))
            config.set_ctype(y, next_type(new_time, local))
        if proc.chan != skip and proc.chan in config.ptypes:
            local = self.ops.shift_right_n(config.ptypes[proc.chan], old_time)
            if local is None:
                raise RunError(_at(pos, f"cannot re-anchor {proc.chan}"))
            config.set_ptype(proc.chan, next_type(new_time, local))

    # -- stepping -------------------------------------------------------------
    def step(self, config: Configuration, scheduler,
             trace: Trace | None = None) -> Optional[Configuration]:
        """Apply one enabled rule chosen by the scheduler and return the next
        configuration; None if quiescent.  Raises StuckError if nothing is
        enabled but an object is not poised.  The input is left unchanged,
        except for the copy a `run` in progress rewrites: that one is
        rewritten in place and returned."""
        candidates = self.enabled(config)
        rule = scheduler.pick(config, candidates) if candidates else None
        if rule is None:
            bad = [o for o in config.objs.values() if not is_poised_obj(o)]
            if bad:
                raise StuckError(_at(
                    next((o.code.pos for o in bad if o.code.pos), None),
                    f"configuration is stuck and not poised: "
                    f"{', '.join(o.text for o in bad)}"))
            return None
        live = self._live
        if live is not None and live.config is config:
            produced = live.fire(rule)
        else:
            config = config.copy()
            produced = rule.apply(config)
        if trace is not None:
            trace.add(rule.name, rule.consumed, produced)
        return config

    def run(self, config: Configuration, scheduler, step_budget: int = 10_000,
            trace: Trace | None = None,
            on_step: Callable[[Configuration], None] | None = None):
        """Iterate until quiescence or the budget is exhausted.
        Returns (final configuration, status) with status in
        {"quiescent", "budget"}.

        The input is copied once and the copy rewritten in place, with its
        enabled rules in an index that each step updates for the objects
        that read what it wrote.  `on_step` gets that live copy after every
        step: it may read it, but must neither keep nor change it.  An input
        that a check with a cache accepted and that is unwritten since hands
        its log to the copy, so the check of the first step goes on from
        what it accepted, and a later check of the input starts afresh."""
        work = config.copy()
        if config.log is not None and not any(config.log):
            work.log, config.log = config.log, None
        outer, self._live = self._live, _Index(self, work)
        try:
            for _ in range(step_budget):
                if self.step(work, scheduler, trace) is None:
                    return work, "quiescent"
                if on_step is not None:
                    on_step(work)
            return work, "budget"
        finally:
            self._live = outer


# ---------------------------------------------------------------------------
# Poisedness and configuration typing

def is_poised_obj(o: Obj) -> bool:
    if o.kind == "msg":
        return True
    match o.code:
        case SendLabel(chan, _, _) | Case(chan, _) | Close(chan) \
                | SendChan(chan, _, _) | RecvChan(_, chan, _) \
                | When(chan, _) | Now(chan, _):
            return o.env.get(chan, chan) == o.chan
        case Fwd():
            return True
        case _:
            return False


def is_poised(config: Configuration) -> bool:
    return all(is_poised_obj(o) for o in config.objs.values())


class _Sequents(Checker):
    """The explicit checker of one run's configuration check.  It keeps
    every sequent it accepted, at every level of a derivation, and returns
    at once on one met again: after a step the continuation's typing is a
    sub-derivation of the one that typed the process before it.  A
    rejected sequent is never kept."""

    def __init__(self, ops: TypeOps):
        super().__init__(ops)
        self.accepted: set[tuple] = set()  # (p, ctx items, chan, offer)

    def check(self, ctx: dict[str, SessionType], p: ProcExpr,
              offer_chan: str, offer_type: SessionType) -> None:
        key = (p, frozenset(ctx.items()), offer_chan, offer_type)
        if key not in self.accepted:
            super().check(ctx, p, offer_chan, offer_type)
            self.accepted.add(key)


class _Checker:
    """What `check_configuration` last accepted for one run: the interface
    and `TypeOps` it was checked against, the log the configuration keeps,
    and an order of its channels that puts every provider before its
    client.  The log's first map holds the object accepted at each channel
    written since, and so the channels it used.  Which object uses each
    channel is the configuration's own record, its `client` map.

    It also holds `sequents`, the sequents its checker accepted for code
    typed under the code's own names.  Those name only a definition's own
    channels, so they are bounded by the program's ground definitions and
    the types their channels take, not by the length of the run.

    A call on the configuration carrying this log decides from the log
    alone, a bounded number of channels per rewriting step, and starts a
    new log.  That pass only decides: it words no fault.  Any other
    configuration (a copy), a change of `ops` or of either interface, and
    any fault or doubt go to the check from empty state, where every
    channel counts as written and no sequent is known, and which words the
    first fault in configuration order.

    The order is kept as integer labels, `label[y] < label[client[y]]`,
    on a list of the channels linked through `prev` and `next`.  Labelled
    from empty state in a depth-first order of the client forest, it takes
    each new channel immediately before its client.  Every rule of
    `Engine` keeps it so: a step links a channel to an object only if the
    channel was linked before to that object or to one ordered before it,
    or if the object is the step's new channel and the channel was linked
    to the one that channel is placed just before.  So a new edge closes no
    cycle when its provider's label is the lower, one comparison, and only
    a failed comparison labels the configuration afresh, which finds any
    cycle.  Labels are
    spread out where a channel must go between two adjacent ones, over the
    smallest aligned range of labels that is sparse enough, as in Bender
    et al., "Two simplified algorithms for maintaining order in a list"
    (ESA 2002): a dynamic topological order (Pearce and Kelly 2006) kept
    by insertion alone."""

    def __init__(self):
        self.ops: TypeOps | None = None
        self.provides = None  # (provides_in, provides_out), as copies
        self.sequents: _Sequents | None = None
        self.log: tuple[dict, dict, dict] | None = None
        self.label: dict[str, int] = {}
        self.prev: dict[str, str | None] = {}
        self.next: dict[str, str | None] = {}

    def check(self, ops: TypeOps, provides_in: dict[str, SessionType],
              config: Configuration, provides_out: dict[str, SessionType],
              keep: bool) -> None:
        """Check `config`; with `keep`, it logs its writes from here on."""
        try:
            if ops is not self.ops or config.log is not self.log \
                    or self.provides != (provides_in, provides_out) \
                    or not self._decide(ops, provides_in, config,
                                        provides_out):
                self.__init__()
                self.ops, self.sequents = ops, _Sequents(ops)
                self.provides = (dict(provides_in), dict(provides_out))
                if not self._cold(ops, provides_in, config, provides_out):
                    self.ops = None  # the next check starts over
                elif keep:
                    self._label_all(config)
        except BaseException:
            self.__init__()
            raise
        if keep:
            self.log = config.log = ({}, {}, {})

    def _decide(self, ops: TypeOps, provides_in: dict[str, SessionType],
                config: Configuration,
                provides_out: dict[str, SessionType]) -> bool:
        """Whether the configuration is well typed, decided from accepted
        state and what the log names; False on a fault or a doubt, leaving
        the state half updated."""
        objs, client, label = config.objs, config.client, self.label
        written, pmoved, cmoved = config.log
        # Order the new channels and unorder the dead ones first.  Every
        # rule gives a new channel its interface and a client that is not
        # new.
        moved = []
        for c, was in written.items():
            o = objs.get(c)
            if o is was:
                continue
            moved.append((c, o, was))
            if o is None:
                if was is not None:
                    self._unlink(c)
            elif was is None:
                if c not in pmoved or client.get(c) not in label:
                    return False
                self._insert(c, client[c])

        # Each channel has one client, which the configuration's map names,
        # and an object that moved but does not hold every channel it uses
        # shares one with another object.  A step that wrote one channel and
        # kept its object's channels (a delay) linked nothing.
        kept = len(written) == 1
        relabelled = False
        typed = set()
        for c, o, was in moved:
            if o is None:
                if c in client and c not in provides_in \
                        or c in provides_out and not self._passes(
                            ops, provides_in, c, provides_out[c]):
                    return False
            else:
                typed.add(c)
                if o.chan != c or (c in client) == (c in provides_out):
                    return False
                if kept and was is not None and o.used is was.used:
                    continue
                for y in o.used:
                    if client.get(y) != c:
                        return False
                    if y not in objs:
                        if y not in provides_in or y in provides_out and \
                                not self._passes(ops, provides_in, y,
                                                 provides_out[y]):
                            return False
                    elif y in provides_out:
                        return False
                    elif not relabelled and label[y] > label[c]:
                        # Not in order: a cycle, or an order to build anew.
                        if not self._label_all(config):
                            return False
                        relabelled = True
            if was is not None:
                for y in was.used:
                    if y in objs and y not in client and y not in provides_out:
                        return False

        # Interface gaps stay within weak subtyping, and every object types
        # at its own time shift of the interface: the objects that moved,
        # those whose offer moved and the clients of the channels whose
        # consumer side moved.
        if pmoved or cmoved:
            ptypes, ctypes = config.ptypes, config.ctypes
            for c in pmoved.keys() | cmoved.keys():
                if c in objs:
                    prov, cons = ptypes.get(c), ctypes.get(c)
                    if prov is None or cons is None \
                            or not is_weak_subtype(ops, prov, cons):
                        return False
            for c, want in provides_out.items():
                if c in objs and c in pmoved \
                        and not is_weak_subtype(ops, ptypes[c], want):
                    return False
            typed.update(pmoved)
            typed.update(map(client.get, cmoved))
        for c in typed:
            if c in objs:
                try:
                    self._verdict(ops, provides_in, config, c)
                except ConfigTypeError:
                    return False
        return True

    def _cold(self, ops: TypeOps, provides_in: dict[str, SessionType],
              config: Configuration,
              provides_out: dict[str, SessionType]) -> bool:
        """Check every channel from empty state, raising ConfigTypeError on
        the first fault in configuration order.  Returns whether the
        configuration's client map is the one its objects give, which a
        later check may then read."""
        objs, ptypes, ctypes = config.objs, config.ptypes, config.ctypes

        # Each channel has one client: the objects are linked here, in
        # configuration order.  An object's channels are taken in name
        # order, here and in its typing context, so a fault reads the same
        # in every process, whatever the order a set of names iterates in.
        client: dict[str, str] = {}
        linked = []
        for c, o in objs.items():
            if o.chan != c:
                raise ConfigTypeError(f"channel {c} holds an object providing "
                                      f"{o.chan}")
            for y in sorted(o.used):
                holder = client.setdefault(y, c)
                if holder != c:
                    raise ConfigTypeError(f"channel {y} has two clients "
                                          f"({holder} and {c})")
                linked.append(y)
        for y in linked:
            if y not in objs and y not in provides_in:
                raise ConfigTypeError(f"channel {y} is consumed but not provided")
        for c, want in provides_out.items():
            if c not in objs:
                # Passed straight through from the input interface.
                if c not in provides_in:
                    raise ConfigTypeError(f"offered channel {c} is not provided")
                if not self._passes(ops, provides_in, c, want):
                    raise ConfigTypeError(f"pass-through channel {c} weakens "
                                          f"beyond weak subtyping")
            elif c in client:
                raise ConfigTypeError(f"offered channel {c} has an internal client")
        for c in objs:
            if c not in client and c not in provides_out:
                raise ConfigTypeError(f"channel {c} is provided but never used")

        # Provider-before-client order must be acyclic: the chain of clients
        # above every channel ends at a channel without one.
        rooted: set[str] = set()
        for u in objs:
            if not objs[u].used:
                continue
            path: set[str] = set()
            while u is not None and u not in rooted:
                if u in path:
                    raise ConfigTypeError(f"cyclic channel dependency through {u}")
                path.add(u)
                u = client.get(u)
            rooted |= path

        # Interface gaps must stay within weak subtyping.
        for c in objs:
            prov = ptypes.get(c)
            cons = ctypes.get(c)
            if prov is None or cons is None:
                raise ConfigTypeError(f"no tracked interface for {c}")
            if not is_weak_subtype(ops, prov, cons):
                raise ConfigTypeError(
                    f"interface gap on {c} exceeds weak subtyping: "
                    f"{fmt_type(prov)} against {fmt_type(cons)}")
        for c, want in provides_out.items():
            if c in objs and not is_weak_subtype(ops, ptypes[c], want):
                raise ConfigTypeError(
                    f"offered channel {c} provides {fmt_type(ptypes[c])}, "
                    f"interface demands {fmt_type(want)}")

        # Every object typechecks at its own time shift of the interface.
        for c in objs:
            self._verdict(ops, provides_in, config, c)
        # Writes that went through two clients of one channel can leave the
        # configuration's map without the client that stayed.
        return client == config.client

    @staticmethod
    def _passes(ops: TypeOps, provides_in: dict[str, SessionType], c: str,
                want: SessionType) -> bool:
        """Whether the channel `c`, passed straight through, keeps within
        weak subtyping of what the input interface gives."""
        return c in provides_in and is_weak_subtype(ops, provides_in[c], want)

    # -- the order of channels ----------------------------------------------
    def _label_all(self, config: Configuration) -> bool:
        """Label the channels from empty state, every provider before its
        client: the reverse of a depth-first walk down the client forest
        from the channels without a client.  False if the walk misses a
        channel, whose chain of clients then never ends."""
        objs, client = config.objs, config.client
        below: dict[str, list[str]] = {}
        for y, c in client.items():
            if y in objs:
                below.setdefault(c, []).append(y)
        order, todo = [], [c for c in objs if c not in client]
        while todo:
            c = todo.pop()
            order.append(c)
            todo.extend(below.get(c, ()))
        if len(order) != len(objs):
            return False
        order.reverse()
        self.label = {c: i << 32 for i, c in enumerate(order, 1)}
        self.prev = dict(zip(order, [None, *order]))
        self.next = dict(zip(order, [*order[1:], None]))
        return True

    def _insert(self, x: str, c: str) -> None:
        """Put the channel `x` immediately before `c`."""
        label, prev = self.label, self.prev
        p = prev[c]
        if label[c] - (0 if p is None else label[p]) < 2:
            self._spread(c)
        label[x] = ((0 if p is None else label[p]) + label[c]) // 2
        prev[x], self.next[x], prev[c] = p, c, x
        if p is not None:
            self.next[p] = x

    def _spread(self, c: str) -> None:
        """Make room before `c`: label evenly the channels of the smallest
        range of 2^i labels around `c`'s that holds at most (4/3)^i - 1 of
        them, which leaves them at least two labels apart."""
        label, prev, after = self.label, self.prev, self.next
        first = last = c
        n, i = 1, 0
        while True:
            i += 1
            base = label[c] >> i << i
            end = base + (1 << i)
            while (q := prev[first]) is not None and label[q] >= base:
                first, n = q, n + 1
            while (q := after[last]) is not None and label[q] < end:
                last, n = q, n + 1
            if (n + 1) * 3 ** i <= 4 ** i:
                break
        gap = (1 << i) // (n + 1)
        for k in range(1, n + 1):
            label[first] = base + k * gap
            first = after[first]

    def _unlink(self, c: str) -> None:
        """Take the dead channel `c` out of the order."""
        p, n = self.prev.pop(c), self.next.pop(c)
        del self.label[c]
        if p is not None:
            self.next[p] = n
        if n is not None:
            self.prev[n] = p

    # -- typing one object --------------------------------------------------
    def _verdict(self, ops: TypeOps, provides_in: dict[str, SessionType],
                 config: Configuration, c: str) -> None:
        """Type the object at `c` at its own time shift of the interface.
        Its code is typed under the code's own channel names, so a checked
        step substitutes nothing, and the sequents of a proc's code recur
        from step to step: those go through `sequents`.  Where the
        environment maps two of those names to one channel the code cannot
        be typed so, and a failing verdict must name the run's channels:
        both are decided on the substituted body, which raises the fault.
        So is a term a rule built (a message, a tail call's forward, the
        root call), which has no environment, without walking it or keeping
        its sequents: they name run channels, which never recur."""
        o = config.objs[c]
        if not o.env or not self._types_as_code(ops, provides_in, config, o):
            self._type_body(ops, provides_in, config, o)

    def _types_as_code(self, ops: TypeOps,
                       provides_in: dict[str, SessionType],
                       config: Configuration, o: Obj) -> bool:
        """Whether the code of `o`, which has an environment, types at its
        time under the code's own channel names; False also where the
        environment maps two names to one channel."""
        code, env, time, c = o.code, o.env, o.time, o.chan
        names = free_chans(code)
        ctypes, ctx, chan = config.ctypes, {}, None
        for x in names:
            y = env.get(x, x)
            if y == c:
                chan = x
                continue
            src = ctypes.get(y)
            if src is None:
                src = provides_in.get(y)
            local = None if src is None else ops.shift_left_n(src, time)
            if local is None:
                return False
            ctx[x] = local
        if len(o.used) + (chan is not None) != len(names) \
                or chan is None and c in names:
            return False
        offer = ops.shift_right_n(config.ptypes[c], time)
        if offer is None:
            return False
        try:
            self.sequents.check(ctx, code, chan or c, offer)
        except Exception:
            return False
        return True

    def _type_body(self, ops: TypeOps, provides_in: dict[str, SessionType],
                   config: Configuration, o: Obj) -> None:
        """Raise ConfigTypeError unless the substituted body of `o` types at
        its time."""
        ctypes = config.ctypes
        srcs = {}
        for y in sorted(o.used):
            src = ctypes.get(y, provides_in.get(y))
            if src is None:
                raise ConfigTypeError(f"no interface for consumed channel {y}")
            srcs[y] = src
        ctx: dict[str, SessionType] = {}
        for y, src in srcs.items():
            local = ops.shift_left_n(src, o.time)
            if local is None:
                raise ConfigTypeError(_at(
                    o.code.pos, f"{o.text}: used channel {y} has no defined "
                    f"view at time {o.time}"))
            ctx[y] = local
        offer = ops.shift_right_n(config.ptypes[o.chan], o.time)
        if offer is None:
            raise ConfigTypeError(_at(
                o.code.pos, f"{o.text}: offered type undefined at time "
                f"{o.time}"))
        try:
            check_process(ops, ctx, o.body, o.chan, offer)
        except Exception as e:
            raise ConfigTypeError(_at(o.code.pos, f"{o.text}: {e}")) from e


def check_configuration(ops: TypeOps, provides_in: dict[str, SessionType],
                        config: Configuration,
                        provides_out: dict[str, SessionType],
                        cache: dict | None = None) -> None:
    """Typecheck a configuration against its external interface; raises
    ConfigTypeError on the first offending object.

    A caller re-checking the successive configurations of one run passes
    one dict as `cache` for the whole run.  Its one entry is a `_Checker`
    holding what it last accepted; the configuration it accepted then logs
    its writes, and a call on it decides from what the log names alone.
    Without a cache, or on another configuration, the check runs from empty
    state.  A fault or doubt met from accepted state drops the state and
    goes to a check from empty state, which words it, so the message never
    depends on the cache."""
    if cache is None:
        return _Checker().check(ops, provides_in, config, provides_out, False)
    checker = cache.get(_Checker)
    if checker is None:
        checker = cache[_Checker] = _Checker()
    checker.check(ops, provides_in, config, provides_out, True)


def check_each_step(ops: TypeOps, config: Configuration
                    ) -> Callable[[Configuration], None]:
    """Preservation, wired once: typecheck a run's initial configuration
    against its root channel's declared type and return the `on_step`
    callback for `Engine.run` that checks every later configuration the
    same way, with one cache for the whole run."""
    root = next(iter(config.objs))
    declared = {root: config.ptypes[root]}
    cache: dict = {}
    check_configuration(ops, {}, config, declared, cache)
    return lambda c: check_configuration(ops, {}, c, declared, cache)


# ---------------------------------------------------------------------------
# Observables

def root_chain(config: Configuration, root: str) -> list[tuple[str, str, int]]:
    """Follow the message chain from the root channel outward, yielding
    (kind, payload, time) triples: labels, sent channels, now! and close."""
    out: list[tuple[str, str, int]] = []
    cur = root
    while cur is not None and cur in config.objs:
        o = config.objs[cur]
        if o.kind != "msg":
            break
        match o.body:
            case SendLabel(chan, label, Fwd(_, nxt)) if chan == cur:
                out.append(("label", label, o.time))
                cur = nxt
            case SendChan(chan, payload, Fwd(_, nxt)) if chan == cur:
                out.append(("chan", payload, o.time))
                cur = nxt
            case Now(chan, Fwd(_, nxt)) if chan == cur:
                out.append(("now", "", o.time))
                cur = nxt
            case Close(_):
                out.append(("close", "", o.time))
                cur = None
            case _:
                break
    return out

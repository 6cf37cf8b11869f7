"""AST for the timed session language: index arithmetic, session types,
process expressions, and signatures.

Index and session-type nodes are hash-consed (Filliatre and Conchon,
"Type-safe modular hash-consing", ML Workshop 2006): each class builds its
nodes through one table keyed by their fields, so two structurally equal
types are the same object.  Their `==` and `hash` are the identity-based
`object` defaults, and any type is a cheap memo key.  The tables are
process-global and never shrink: they hold one node per distinct type or
index expression built.

Process nodes are frozen dataclasses that carry source positions excluded
from equality, so they are not interned; each computes its structural hash
once (`memo_hash`).  The free-channel set `free_chans` keeps on a node is
interned, so nodes with equal sets share one object.  `SUBPROC_FIELDS`,
`BINDER_FIELDS` and `CHAN_FIELDS` state once which fields of a process form
hold its sub-processes, which channel it binds over them, and which name
the channels it uses itself; walks reach every form they do not treat
specially through `subprocs`, `bound_by`, `own_chans` and `map_subprocs`,
and `free_chans` and `rename_chans` are read off the three tables.  A new
form takes an entry in each table, its typing rule in `checker.rule` (which
the explicit checker and the reconstruction both read), and its own rules
in the interpreter, the printer and the parser.
"""

from __future__ import annotations

import enum
import inspect
import weakref
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter, is_
from typing import Callable, Iterator, Optional, Union, get_args

from .errors import EvalError, SessionTypeError

Pos = tuple[int, int]


def _hash_consed(cls):
    """Make `cls` a frozen dataclass whose constructor returns the one node
    with the given fields, building it only on the first request.  Defaults
    and keywords are normalized first, so `TypeName("X") is
    TypeName(name="X", args=())`.  Copying or unpickling a node rebuilds it
    through the constructor, which returns the interned node again."""
    cls = dataclass(frozen=True, eq=False, init=False, slots=True)(cls)
    names = tuple(f.name for f in fields(cls))
    bind = inspect.Signature([
        inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=inspect.Parameter.empty
                          if f.default is MISSING else f.default)
        for f in fields(cls)]).bind
    defaults = tuple(f.default for f in fields(cls))
    required = sum(f.default is MISSING for f in fields(cls))
    table: dict = {}

    def __new__(klass, *args, **kwargs):
        if kwargs or len(args) != len(names):
            if not kwargs and required <= len(args) < len(names):
                args += defaults[len(args):]
            else:
                bound = bind(*args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())
        node = table.get(args)
        if node is None:
            node = table[args] = object.__new__(klass)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
        return node

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in names)

    cls.__new__ = staticmethod(__new__)
    cls.__reduce__ = __reduce__
    return cls


# --------------------------------------------------------------------------
# Index arithmetic over naturals (no subtraction).  Plain ints are literals.

@_hash_consed
class IVar:
    name: str


@_hash_consed
class IAdd:
    left: "IndexExpr"
    right: "IndexExpr"


@_hash_consed
class IMul:
    left: "IndexExpr"
    right: "IndexExpr"


IndexExpr = Union[int, IVar, IAdd, IMul]


def eval_index(e: IndexExpr, binding: dict[str, int]) -> int:
    if type(e) is int:  # most counts and indices are literals
        return e
    match e:
        case int(n):
            return n
        case IVar(name):
            if name not in binding:
                raise EvalError(f"unbound parameter '{name}'")
            return binding[name]
        case IAdd(a, b):
            return eval_index(a, binding) + eval_index(b, binding)
        case IMul(a, b):
            return eval_index(a, binding) * eval_index(b, binding)
    raise EvalError(f"malformed index expression {e!r}")


def index_vars(e: IndexExpr) -> set[str]:
    match e:
        case int():
            return set()
        case IVar(name):
            return {name}
        case IAdd(a, b) | IMul(a, b):
            return index_vars(a) | index_vars(b)
    return set()


def fmt_index(e: IndexExpr, prec: int = 0) -> str:
    match e:
        case int(n):
            return str(n)
        case IVar(name):
            return name
        case IAdd(a, b):
            s = f"{fmt_index(a, 1)}+{fmt_index(b, 1)}"
            return f"({s})" if prec > 1 else s
        case IMul(a, b):
            return f"{fmt_index(a, 2)}*{fmt_index(b, 2)}"
    return repr(e)


# --------------------------------------------------------------------------
# Session types

@_hash_consed
class Plus:
    branches: tuple[tuple[str, "SessionType"], ...]


@_hash_consed
class With:
    branches: tuple[tuple[str, "SessionType"], ...]


@_hash_consed
class One:
    pass


@_hash_consed
class Tensor:
    left: "SessionType"
    right: "SessionType"


@_hash_consed
class Lolli:
    arg: "SessionType"
    cont: "SessionType"


@_hash_consed
class Next:
    count: IndexExpr  # >= 1 once ground; inner is never itself a Next
    inner: "SessionType"


@_hash_consed
class Box:
    inner: "SessionType"


@_hash_consed
class Diamond:
    inner: "SessionType"


@_hash_consed
class TypeName:
    name: str
    args: tuple[IndexExpr, ...] = ()


SessionType = Union[Plus, With, One, Tensor, Lolli, Next, Box, Diamond, TypeName]


ONE = One()


def next_type(count: IndexExpr, inner: SessionType) -> SessionType:
    """Smart constructor keeping the Next-normalization invariant."""
    if count == 0:
        return inner
    if isinstance(inner, Next) and isinstance(inner.count, int) and isinstance(count, int):
        return Next(count + inner.count, inner.inner)
    if isinstance(inner, Next):
        return Next(IAdd(count, inner.count), inner.inner)
    return Next(count, inner)


def branch_get(branches: tuple[tuple[str, SessionType], ...], label: str) -> Optional[SessionType]:
    for lab, t in branches:
        if lab == label:
            return t
    return None


def branch_labels(branches: tuple[tuple[str, SessionType], ...]) -> tuple[str, ...]:
    return tuple(lab for lab, _ in branches)


def type_refs(t: SessionType) -> Iterator[Union[TypeName, IndexExpr]]:
    """The parts of `t` that refer outside it, outermost first: its type
    names, and its delay counts that are not literals."""
    match t:
        case Plus(bs) | With(bs):
            for _, u in bs:
                yield from type_refs(u)
        case Tensor(a, b) | Lolli(a, b):
            yield from type_refs(a)
            yield from type_refs(b)
        case Next(c, inner):
            if not isinstance(c, int):
                yield c
            yield from type_refs(inner)
        case Box(inner) | Diamond(inner):
            yield from type_refs(inner)
        case TypeName():
            yield t


def type_is_ground(t: SessionType) -> bool:
    return all(isinstance(r, TypeName) and not r.args for r in type_refs(t))


# --------------------------------------------------------------------------
# Process expressions

class Origin(enum.Enum):
    SOURCE = "source"
    TICK = "tick"
    RECON = "recon"


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Spawn:
    dest: str
    proc: str
    args: tuple[IndexExpr, ...]
    chans: tuple[str, ...]
    cont: "ProcExpr"
    via_tailcall: bool = field(default=False, compare=False, repr=False)
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class TailCall:
    dest: str
    proc: str
    args: tuple[IndexExpr, ...]
    chans: tuple[str, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Cut:
    dest: str
    annot: SessionType
    body: "ProcExpr"
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Fwd:
    dest: str
    src: str
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class SendLabel:
    chan: str
    label: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Case:
    chan: str
    branches: tuple[tuple[str, "ProcExpr"], ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Close:
    chan: str
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Wait:
    chan: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class SendChan:
    chan: str
    payload: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class RecvChan:
    bind: str
    chan: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Delay:
    count: IndexExpr  # >= 1 once ground
    origin: Origin
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class When:
    chan: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Now:
    chan: str
    cont: "ProcExpr"
    pos: Optional[Pos] = _pos_field()


ProcExpr = Union[Spawn, TailCall, Cut, Fwd, SendLabel, Case, Close, Wait,
                 SendChan, RecvChan, Delay, When, Now]


def memo_hash(cls):
    """Compute a frozen dataclass's structural hash once per node and keep
    it on the node: process nodes are immutable and get hashed again and
    again as memo keys.  A copy or a pickle of a node leaves out what the
    node keeps for itself (its hash and its free channels), which the copy
    computes again.

    The node keeps these as attributes and nothing reads its `__dict__`:
    on CPython 3.11 reading it gives the node a dict object of its own, 64
    bytes more, on which attribute reads are no longer specialized (25 ns
    against 7 ns per read in a micro-benchmark on 3.11.7).  For the same
    reason the forms keep the dataclass's constructor: one that writes the
    fields into `__dict__` builds a node in well under half the time, but
    the interpreter's checked runs, which read every node many times, lost
    about a tenth of their speed to it."""
    base = cls.__hash__
    names = tuple(f.name for f in fields(cls))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = base(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {name: getattr(self, name) for name in names}

    # Until a node keeps its own, it reads these from the class, so a
    # first read raises no AttributeError.
    cls._hash = cls._free = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


for _cls in get_args(ProcExpr):
    memo_hash(_cls)


# The shape of each process form: the fields that hold its sub-processes, in
# source order, and the channel it binds over all of them.  `Case` holds its
# sub-processes as the bodies of its (label, body) branches.
SUBPROC_FIELDS: dict[type, tuple[str, ...]] = {
    Spawn: ("cont",), TailCall: (), Cut: ("body", "cont"), Fwd: (),
    SendLabel: ("cont",), Case: ("branches",), Close: (), Wait: ("cont",),
    SendChan: ("cont",), RecvChan: ("cont",), Delay: ("cont",),
    When: ("cont",), Now: ("cont",)}
BINDER_FIELDS: dict[type, str] = {Spawn: "dest", Cut: "dest", RecvChan: "bind"}


# The fields of each process form that name channels free in it, binders
# left out.  A call's `chans` holds a tuple of names, every other field one.
CHAN_FIELDS: dict[type, tuple[str, ...]] = {
    Spawn: ("chans",), TailCall: ("dest", "chans"), Cut: (),
    Fwd: ("dest", "src"), SendLabel: ("chan",), Case: ("chan",),
    Close: ("chan",), Wait: ("chan",), SendChan: ("chan", "payload"),
    RecvChan: ("chan",), Delay: (), When: ("chan",), Now: ("chan",)}


def _tuple_getter(names: tuple[str, ...]) -> Callable[[ProcExpr], tuple]:
    """A function from a node to the tuple of its fields `names`."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda p: (get(p),)
    return attrgetter(*names) if names else lambda p: ()


def _chans_getter(names: tuple[str, ...]) -> Callable[[ProcExpr], tuple]:
    """A function from a node to the channel names in its fields `names`,
    with a call's `chans` (always last) spliced in."""
    if names[-1:] != ("chans",):
        return _tuple_getter(names)
    get = _tuple_getter(names[:-1])
    return lambda p: get(p) + p.chans


# Per form, computed once: getters for its sub-processes, its own channels
# and all its constructor fields in order, and where the first two sit among
# the last.
_SUBPROCS_OF = {cls: _tuple_getter(names)
                for cls, names in SUBPROC_FIELDS.items()}
_CHANS_OF = {cls: _chans_getter(names) for cls, names in CHAN_FIELDS.items()}
_FIELDS_OF = {cls: _tuple_getter(cls.__match_args__) for cls in SUBPROC_FIELDS}
_SUBPROC_AT = {cls: tuple(map(cls.__match_args__.index, names))
               for cls, names in SUBPROC_FIELDS.items()}
_CHAN_AT = {cls: tuple(map(cls.__match_args__.index, names))
            for cls, names in CHAN_FIELDS.items()}


def subprocs(p: ProcExpr) -> tuple[ProcExpr, ...]:
    """The immediate sub-processes of `p`, in source order."""
    if type(p) is Case:
        return tuple([b for _, b in p.branches])
    return _SUBPROCS_OF[type(p)](p)


def bound_by(p: ProcExpr) -> tuple[str, ...]:
    """The channel `p` binds over its sub-processes, as `(name,)`, or `()`."""
    name = BINDER_FIELDS.get(type(p))
    return () if name is None else (getattr(p, name),)


def own_chans(p: ProcExpr) -> tuple[str, ...]:
    """The channels `p` names itself, outside its sub-processes and
    binder, in field order."""
    return _CHANS_OF[type(p)](p)


def map_subprocs(p: ProcExpr, f: Callable[[ProcExpr], ProcExpr]) -> ProcExpr:
    """`p` with `f` applied to each sub-process, in source order, and every
    other field (source position included) kept.  Returns `p` itself when
    `f` gives back every sub-process unchanged."""
    old = subprocs(p)
    new = tuple(map(f, old))
    return p if all(map(is_, new, old)) else with_subprocs(p, new)


def with_subprocs(p: ProcExpr, new) -> ProcExpr:
    """`p` with the sub-processes `new`, in source order, and every other
    field (source position included) kept."""
    if type(p) is Case:
        return Case(p.chan, tuple(zip([lab for lab, _ in p.branches], new)),
                    p.pos)
    values = list(_FIELDS_OF[type(p)](p))
    for i, q in zip(_SUBPROC_AT[type(p)], new):
        values[i] = q
    return type(p)(*values)


def free_chans(p: ProcExpr) -> frozenset[str]:
    """Channels a process uses or offers, with binders removed.  The set is
    computed once per node and kept on it, as `memo_hash` keeps hashes, so
    it is a frozenset that callers share.  Equal sets are one object
    (`_interned`), whichever nodes keep them."""
    out = p._free
    if out is None:
        out = _free_chans(p)
        object.__setattr__(p, "_free", out)
    return out


def _free_chans(p: ProcExpr) -> frozenset[str]:
    """The union of the sub-processes' sets, less the binder, plus the
    node's own channels."""
    own = own_chans(p)
    subs = subprocs(p)
    if not subs:
        return _interned(frozenset(own))
    sets = list(map(free_chans, subs))
    out = sets[0].union(*sets[1:]) if len(sets) > 1 else sets[0]
    for name in bound_by(p):
        if name in out:
            out = out - {name}
    if not out.issuperset(own):
        out = out.union(own)
    return out if type(out) is _Chans else _interned(out)


class _Chans(frozenset):
    """A free-channel set as nodes keep it: a frozenset that the intern
    table can refer to weakly."""


# Each free-channel set some node keeps, by value, held weakly: the sets of
# definition bodies recur across ground instances and live as long as the
# program, while those of the messages a run builds name its fresh channels
# and go with them.  Entries whose set has gone are dropped once the table
# has doubled since the last sweep.
_FREE_SETS: dict[frozenset[str], weakref.ref] = {}
_free_sets_sweep_at = 256


def _interned(s: frozenset[str]) -> _Chans:
    """The one kept set equal to `s`."""
    global _free_sets_sweep_at
    ref = _FREE_SETS.get(s)
    if ref is not None:
        out = ref()
        if out is not None:
            return out
    out = _Chans(s)
    _FREE_SETS[s] = weakref.ref(out)
    if len(_FREE_SETS) >= _free_sets_sweep_at:
        for key in [k for k, r in _FREE_SETS.items() if r() is None]:
            del _FREE_SETS[key]
        _free_sets_sweep_at = max(256, 2 * len(_FREE_SETS))
    return out


def rename_chans(p: ProcExpr, sub: dict[str, str]) -> ProcExpr:
    """Capture-aware channel renaming (binders shadow the substitution).
    Every other field, source position included, is kept."""
    if not sub:
        return p
    cls = type(p)
    values = list(_FIELDS_OF[cls](p))
    for i in _CHAN_AT[cls]:
        x = values[i]
        values[i] = sub.get(x, x) if type(x) is str else \
            tuple([sub.get(c, c) for c in x])
    for name in bound_by(p):
        if name in sub:
            sub = {x: y for x, y in sub.items() if x != name}
    for i in _SUBPROC_AT[cls]:
        q = values[i]
        values[i] = tuple([(lab, rename_chans(b, sub)) for lab, b in q]) \
            if cls is Case else rename_chans(q, sub)
    return cls(*values)


# --------------------------------------------------------------------------
# Signatures: definitions keyed by index patterns (0 / v / v+k)

@dataclass(frozen=True)
class PatConst:
    value: int


@dataclass(frozen=True)
class PatVar:
    name: str


@dataclass(frozen=True)
class PatSucc:
    name: str
    offset: int  # matches value >= offset, binding name = value - offset


IndexPat = Union[PatConst, PatVar, PatSucc]


def pat_match(pat: IndexPat, value: int) -> Optional[dict[str, int]]:
    match pat:
        case PatConst(v):
            return {} if value == v else None
        case PatVar(name):
            return {name: value}
        case PatSucc(name, off):
            return {name: value - off} if value >= off else None
    return None


def fmt_pat(pat: IndexPat) -> str:
    match pat:
        case PatConst(v):
            return str(v)
        case PatVar(name):
            return name
        case PatSucc(name, off):
            return f"{name}+{off}"
    return repr(pat)


@dataclass
class TypeClause:
    patterns: tuple[IndexPat, ...]
    body: SessionType
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass
class TypeDef:
    name: str
    clauses: list[TypeClause]

    @property
    def arity(self) -> int:
        return len(self.clauses[0].patterns)


@dataclass
class DeclClause:
    patterns: tuple[IndexPat, ...]
    ctx: tuple[tuple[str, SessionType], ...]
    offer_chan: str
    offer_type: SessionType
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass
class ProcDecl:
    name: str
    clauses: list[DeclClause]

    @property
    def arity(self) -> int:
        return len(self.clauses[0].patterns)


@dataclass
class DefClause:
    patterns: tuple[IndexPat, ...]
    dest: str
    chans: tuple[str, ...]
    body: ProcExpr
    pos: Optional[Pos] = field(default=None, compare=False)


@dataclass
class ProcDef:
    name: str
    clauses: list[DefClause]


@dataclass
class Signature:
    typedefs: dict[str, TypeDef] = field(default_factory=dict)
    procdecls: dict[str, ProcDecl] = field(default_factory=dict)
    procdefs: dict[str, ProcDef] = field(default_factory=dict)

    def is_ground(self) -> bool:
        for td in self.typedefs.values():
            if td.arity or len(td.clauses) != 1 or not type_is_ground(td.clauses[0].body):
                return False
        for pd in self.procdecls.values():
            if pd.arity or len(pd.clauses) != 1:
                return False
            cl = pd.clauses[0]
            if not all(type_is_ground(t) for _, t in cl.ctx) or not type_is_ground(cl.offer_type):
                return False
        return True

    # Ground accessors -----------------------------------------------------
    def type_body(self, name: str) -> SessionType:
        return self.typedefs[name].clauses[0].body

    def decl(self, name: str) -> DeclClause:
        return self.procdecls[name].clauses[0]

    def proc_body(self, name: str) -> DefClause:
        return self.procdefs[name].clauses[0]

    def def_goal(self, name: str
                 ) -> tuple[DefClause, dict[str, SessionType], SessionType]:
        """What a ground definition must establish: its clause, the context
        its channels take from the declaration, and the offered type.
        Raises SessionTypeError if the two disagree on the channel count."""
        dcl, decl = self.proc_body(name), self.decl(name)
        if len(dcl.chans) != len(decl.ctx):
            raise SessionTypeError(
                f"definition of {name} binds {len(dcl.chans)} channels, "
                f"decl has {len(decl.ctx)}")
        ctx = {actual: t for actual, (_, t) in zip(dcl.chans, decl.ctx)}
        return dcl, ctx, decl.offer_type

"""Grounding of index-parameterized definitions.

Families like `list[n]` (clauses keyed by patterns 0 / n+1) are turned into
ordinary definitions at concrete naturals; every reachable reference is
instantiated once and renamed to a mangled ground name (`list[3]` becomes
`list$3`).  Parameters that occur free in a body (a global rate, say) are
taken from the same binding as the root's own indices.  A negative bound
value is an error, as is a bound name that is neither a root's parameter
nor free in some clause.  Index expressions have only literals, `+` and `*`, and a
pattern `n+k` binds `n` only to a value of at least 0, so no index or delay
count grounds below zero.

Grounding is a work queue: a reference asks for its mangled name
(`_Grounder.request`, once per kind, name and indices), which queues the
definition the first time, and `drain` grounds queued definitions in the
order they were first asked for, so the output lists them in that order.
The walks over types and bodies dispatch on the class of the node.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .ast import (Box, Cut, DeclClause, DefClause, Delay, Diamond, IndexExpr,
                  Lolli, Next, PatSucc, PatVar, Plus, ProcDecl, ProcDef,
                  ProcExpr, SessionType, Signature, Spawn, TailCall, Tensor,
                  TypeClause, TypeDef, TypeName, With, eval_index, index_vars,
                  map_subprocs, next_type, pat_match, subprocs, type_refs)
from .errors import EvalError, ScopeError


def formal_params(clauses) -> list[str]:
    """Per-position parameter names, taken from the first clause that binds
    a variable at that position (synthetic names for all-constant columns)."""
    if not clauses:
        return []
    arity = len(clauses[0].patterns)
    out = []
    for i in range(arity):
        name = f"i{i}"
        for cl in clauses:
            pat = cl.patterns[i]
            if isinstance(pat, (PatVar, PatSucc)):
                name = pat.name
                break
        out.append(name)
    return out


def _select_clause(clauses, values: tuple[int, ...], what: str):
    for cl in clauses:
        binding: dict[str, int] = {}
        ok = True
        for pat, v in zip(cl.patterns, values):
            m = pat_match(pat, v)
            if m is None:
                ok = False
                break
            binding.update(m)
        if ok:
            return cl, binding
    raise EvalError(f"no clause of {what} matches indices {list(values)}")


def _mangle(name: str, values: tuple[int, ...]) -> str:
    return name + "".join(f"${v}" for v in values)


class _Grounder:
    # A family referring to itself at ever-larger indices would ground
    # forever; cap the number of produced definitions.
    MAX_DEFS = 10_000

    def __init__(self, sig: Signature, ambient: dict[str, int]):
        self.sig = sig
        self.ambient = ambient
        self.out = Signature()
        # The mangled name of each (kind, name, values) requested so far.
        self.names: dict[tuple[str, str, tuple[int, ...]], str] = {}
        self.done: set[tuple[str, str]] = set()
        self.queue: deque[tuple[str, str, tuple[int, ...]]] = deque()
        # Types that ground to themselves, having no index to evaluate and
        # only names without indices, which are requested already.  Types
        # are hash-consed, so a type grounds to itself only if it is one.
        self.closed: set[SessionType] = set()

    def request(self, kind: str, name: str, values: tuple[int, ...]) -> str:
        key = (kind, name, values)
        mangled = self.names.get(key)
        if mangled is None:
            mangled = self.names[key] = _mangle(name, values)
            if (kind, mangled) not in self.done:
                if len(self.done) >= self.MAX_DEFS:
                    raise EvalError(
                        f"instantiation produced more than {self.MAX_DEFS} "
                        f"definitions (divergent index family?)")
                self.done.add((kind, mangled))
                self.queue.append(key)
        return mangled

    def drain(self) -> Signature:
        while self.queue:
            key = self.queue.popleft()
            kind, name, values = key
            if kind == "type":
                self._ground_type_def(name, values, self.names[key])
            else:
                self._ground_proc(name, values, self.names[key])
        return self.out

    # ------------------------------------------------------------------
    def _ground_type_def(self, name: str, values: tuple[int, ...],
                         mangled: str) -> None:
        td = self.sig.typedefs[name]
        cl, binding = _select_clause(td.clauses, values, f"type '{name}'")
        local = dict(self.ambient)
        local.update(binding)
        body = self.type_(cl.body, local)
        self.out.typedefs[mangled] = TypeDef(mangled, [TypeClause((), body)])

    def _ground_proc(self, name: str, values: tuple[int, ...],
                     mangled: str) -> None:
        decl = self.sig.procdecls[name]
        cl, binding = _select_clause(decl.clauses, values, f"decl '{name}'")
        local = dict(self.ambient)
        local.update(binding)
        ctx = tuple((c, self.type_(t, local)) for c, t in cl.ctx)
        offer = self.type_(cl.offer_type, local)
        self.out.procdecls[mangled] = ProcDecl(
            mangled, [DeclClause((), ctx, cl.offer_chan, offer)])
        if name not in self.sig.procdefs:
            return
        dcl, dbinding = _select_clause(self.sig.procdefs[name].clauses, values,
                                       f"proc '{name}'")
        dlocal = dict(self.ambient)
        dlocal.update(dbinding)
        body = self.proc(dcl.body, dlocal)
        self.out.procdefs[mangled] = ProcDef(
            mangled, [DefClause((), dcl.dest, dcl.chans, body)])

    # ------------------------------------------------------------------
    # Each walk dispatches on the class of the node: one method per form
    # that holds an index or a name to ground, and for the other process
    # forms the generic rebuild of their sub-processes.
    def type_(self, t: SessionType, env: dict[str, int]) -> SessionType:
        if t in self.closed:
            return t
        ground = self._TYPE.get(type(t))
        if ground is None:
            return t
        out = ground(self, t, env)
        if out is t:
            self.closed.add(t)
        return out

    def _branches(self, t, env):
        return type(t)(tuple([(lab, self.type_(u, env))
                              for lab, u in t.branches]))

    def _tensor(self, t, env):
        return Tensor(self.type_(t.left, env), self.type_(t.right, env))

    def _lolli(self, t, env):
        return Lolli(self.type_(t.arg, env), self.type_(t.cont, env))

    def _next(self, t, env):
        return next_type(eval_index(t.count, env), self.type_(t.inner, env))

    def _modal(self, t, env):
        return type(t)(self.type_(t.inner, env))

    def _name(self, t, env):
        values = tuple([eval_index(a, env) for a in t.args])
        return TypeName(self.request("type", t.name, values))

    _TYPE = {Plus: _branches, With: _branches, Tensor: _tensor, Lolli: _lolli,
             Next: _next, Box: _modal, Diamond: _modal, TypeName: _name}

    def proc(self, p: ProcExpr, env: dict[str, int]) -> ProcExpr:
        ground = self._PROC.get(type(p))
        if ground is not None:
            return ground(self, p, env)
        return map_subprocs(p, lambda q: self.proc(q, env))

    def _spawn(self, p, env):
        values = tuple([eval_index(a, env) for a in p.args])
        return Spawn(p.dest, self.request("proc", p.proc, values), (),
                     p.chans, self.proc(p.cont, env), p.via_tailcall, p.pos)

    def _tail_call(self, p, env):
        values = tuple([eval_index(a, env) for a in p.args])
        return TailCall(p.dest, self.request("proc", p.proc, values), (),
                        p.chans, p.pos)

    def _cut(self, p, env):
        return Cut(p.dest, self.type_(p.annot, env), self.proc(p.body, env),
                   self.proc(p.cont, env), p.pos)

    def _delay(self, p, env):
        n = eval_index(p.count, env)
        rest = self.proc(p.cont, env)
        return rest if n == 0 else Delay(n, p.origin, rest, p.pos)

    _PROC = {Spawn: _spawn, TailCall: _tail_call, Cut: _cut, Delay: _delay}


def _root(sig: Signature, name: str) -> tuple[str, list]:
    """The kind ("proc" or "type") and the clauses of a requested root."""
    if name in sig.procdecls:
        return "proc", sig.procdecls[name].clauses
    if name in sig.typedefs:
        return "type", sig.typedefs[name].clauses
    raise ScopeError(f"no definition named '{name}'")


def _root_values(sig: Signature, name: str, binding: dict[str, int]
                 ) -> tuple[int, ...]:
    kind, clauses = _root(sig, name)
    formals = formal_params(clauses)
    missing = [f for f in formals if f not in binding]
    if missing:
        raise EvalError(f"{kind} '{name}': no binding for parameter(s) "
                        f"{', '.join(missing)}")
    return tuple(binding[f] for f in formals)


def instantiate(sig: Signature, name: str, binding: dict[str, int] | None = None
                ) -> Signature:
    """Ground `name` (a type or process family) and everything it reaches."""
    return instantiate_many(sig, [name], binding or {})


def instantiate_many(sig: Signature, names: list[str],
                     binding: dict[str, int] | None = None) -> Signature:
    """Ground several roots under one shared parameter binding.  Every bound
    value must be a natural, and every bound name a root's parameter or free
    in some clause of `sig`."""
    binding = binding or {}
    negative = [f"{name}={v}" for name, v in binding.items() if v < 0]
    if negative:
        raise EvalError(f"negative binding {', '.join(negative)}; an index "
                        f"must be at least 0")
    g = _Grounder(sig, dict(binding))
    unused = set(binding)
    for name in names:
        kind, clauses = _root(sig, name)
        unused.difference_update(formal_params(clauses))
        g.request(kind, name, _root_values(sig, name, binding))
    if unused:
        unused -= _free_params(sig)
    if unused:
        raise EvalError(f"binding for unused parameter(s) "
                        f"{', '.join(sorted(unused))}")
    return g.drain()


def mangled_name(sig: Signature, name: str, binding: dict[str, int]) -> str:
    """The ground name `instantiate` gives the requested root."""
    return _mangle(name, _root_values(sig, name, binding))


def signature_is_parameterized(sig: Signature) -> bool:
    """Whether `sig` must be grounded before it is checked: a definition
    takes indices, or a clause uses an index variable (a parameter that
    only a binding fixes)."""
    return any(td.arity for td in sig.typedefs.values()) or \
        any(pd.arity for pd in sig.procdecls.values()) or \
        bool(_free_params(sig))


def _free_params(sig: Signature) -> set[str]:
    """The index variables some clause of `sig` uses without binding them
    by its patterns: the parameters only a binding fixes."""
    out: set[str] = set()
    for td in sig.typedefs.values():
        for cl in td.clauses:
            out |= _free(cl, _type_indices(cl.body))
    for pd in sig.procdecls.values():
        for cl in pd.clauses:
            for t in (*(u for _, u in cl.ctx), cl.offer_type):
                out |= _free(cl, _type_indices(t))
    for pdef in sig.procdefs.values():
        for cl in pdef.clauses:
            out |= _free(cl, _proc_indices(cl.body))
    return out


def _free(clause, exprs: Iterable[IndexExpr]) -> set[str]:
    bound = {p.name for p in clause.patterns if isinstance(p, (PatVar, PatSucc))}
    return set().union(*map(index_vars, exprs)) - bound


def _type_indices(t: SessionType) -> Iterator[IndexExpr]:
    """The index expressions of `t`: delay counts and type-name indices."""
    for ref in type_refs(t):
        yield from ref.args if isinstance(ref, TypeName) else (ref,)


def _proc_indices(p: ProcExpr) -> Iterator[IndexExpr]:
    """The index expressions of `p`: delay counts, call indices and those
    of cut annotations."""
    match p:
        case Delay(count=count):
            yield count
        case Cut(annot=annot):
            yield from _type_indices(annot)
        case Spawn(args=args) | TailCall(args=args):
            yield from args
    for q in subprocs(p):
        yield from _proc_indices(q)

"""Grounding of index-parameterized definitions.

Families like `list[n]` (clauses keyed by patterns 0 / n+1) are turned into
ordinary definitions at concrete naturals; every reachable reference is
instantiated once and renamed to a mangled ground name (`list[3]` becomes
`list$3`).  Parameters that occur free in a body (a global rate, say) are
taken from the same binding as the root's own indices.
"""

from __future__ import annotations

from .ast import (Box, Cut, DeclClause, DefClause, Delay, Diamond, Lolli, Next,
                  PatSucc, PatVar, Plus, ProcDecl, ProcDef, ProcExpr,
                  SessionType, Signature, Spawn, TailCall, Tensor, TypeClause,
                  TypeDef, TypeName, With, eval_index, map_subprocs,
                  next_type, pat_match, subprocs, type_is_ground)
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
        self.done: set[tuple[str, str]] = set()
        self.queue: list[tuple[str, str, tuple[int, ...]]] = []

    def request(self, kind: str, name: str, values: tuple[int, ...]) -> str:
        mangled = _mangle(name, values)
        if (kind, mangled) not in self.done:
            if len(self.done) >= self.MAX_DEFS:
                raise EvalError(
                    f"instantiation produced more than {self.MAX_DEFS} "
                    f"definitions (divergent index family?)")
            self.done.add((kind, mangled))
            self.queue.append((kind, name, values))
        return mangled

    def drain(self) -> Signature:
        while self.queue:
            kind, name, values = self.queue.pop(0)
            if kind == "type":
                self._ground_type_def(name, values)
            else:
                self._ground_proc(name, values)
        return self.out

    # ------------------------------------------------------------------
    def _ground_type_def(self, name: str, values: tuple[int, ...]) -> None:
        td = self.sig.typedefs[name]
        cl, binding = _select_clause(td.clauses, values, f"type '{name}'")
        local = dict(self.ambient)
        local.update(binding)
        body = self.type_(cl.body, local)
        mangled = _mangle(name, values)
        self.out.typedefs[mangled] = TypeDef(mangled, [TypeClause((), body)])

    def _ground_proc(self, name: str, values: tuple[int, ...]) -> None:
        mangled = _mangle(name, values)
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
    def type_(self, t: SessionType, env: dict[str, int]) -> SessionType:
        match t:
            case Plus(bs):
                return Plus(tuple((lab, self.type_(u, env)) for lab, u in bs))
            case With(bs):
                return With(tuple((lab, self.type_(u, env)) for lab, u in bs))
            case Tensor(a, b):
                return Tensor(self.type_(a, env), self.type_(b, env))
            case Lolli(a, b):
                return Lolli(self.type_(a, env), self.type_(b, env))
            case Next(count, inner):
                return next_type(eval_index(count, env), self.type_(inner, env))
            case Box(inner):
                return Box(self.type_(inner, env))
            case Diamond(inner):
                return Diamond(self.type_(inner, env))
            case TypeName(name, args):
                values = tuple(eval_index(a, env) for a in args)
                return TypeName(self.request("type", name, values))
            case _:
                return t

    def proc(self, p: ProcExpr, env: dict[str, int]) -> ProcExpr:
        match p:
            case Spawn(dest, proc, args, chans, cont, via):
                values = tuple(eval_index(a, env) for a in args)
                return Spawn(dest, self.request("proc", proc, values), (),
                             chans, self.proc(cont, env), via, p.pos)
            case TailCall(dest, proc, args, chans):
                values = tuple(eval_index(a, env) for a in args)
                return TailCall(dest, self.request("proc", proc, values), (),
                                chans, p.pos)
            case Cut(dest, annot, body, cont):
                return Cut(dest, self.type_(annot, env), self.proc(body, env),
                           self.proc(cont, env), p.pos)
            case Delay(count, origin, cont):
                n = eval_index(count, env)
                rest = self.proc(cont, env)
                return rest if n == 0 else Delay(n, origin, rest, p.pos)
        return map_subprocs(p, lambda q: self.proc(q, env))


def _root_values(clauses, binding: dict[str, int], what: str) -> tuple[int, ...]:
    formals = formal_params(clauses)
    missing = [f for f in formals if f not in binding]
    if missing:
        raise EvalError(f"{what}: no binding for parameter(s) {', '.join(missing)}")
    return tuple(binding[f] for f in formals)


def instantiate(sig: Signature, name: str, binding: dict[str, int] | None = None
                ) -> Signature:
    """Ground `name` (a type or process family) and everything it reaches."""
    return instantiate_many(sig, [name], binding or {})


def instantiate_many(sig: Signature, names: list[str],
                     binding: dict[str, int] | None = None) -> Signature:
    """Ground several roots under one shared parameter binding."""
    binding = binding or {}
    g = _Grounder(sig, dict(binding))
    for name in names:
        if name in sig.procdecls:
            values = _root_values(sig.procdecls[name].clauses, binding,
                                  f"proc '{name}'")
            g.request("proc", name, values)
        elif name in sig.typedefs:
            values = _root_values(sig.typedefs[name].clauses, binding,
                                  f"type '{name}'")
            g.request("type", name, values)
        else:
            raise ScopeError(f"no definition named '{name}'")
    return g.drain()


def mangled_name(sig: Signature, name: str, binding: dict[str, int]) -> str:
    """The ground name `instantiate` gives the requested root."""
    if name in sig.procdecls:
        return _mangle(name, _root_values(sig.procdecls[name].clauses, binding,
                                          f"proc '{name}'"))
    if name in sig.typedefs:
        return _mangle(name, _root_values(sig.typedefs[name].clauses, binding,
                                          f"type '{name}'"))
    raise ScopeError(f"no definition named '{name}'")


def signature_is_parameterized(sig: Signature) -> bool:
    """Whether `sig` must be grounded before it is checked: a definition
    takes indices, or a type or body uses an index variable (a parameter
    that only a binding fixes)."""
    types = [cl.body for td in sig.typedefs.values() for cl in td.clauses]
    types += [t for pd in sig.procdecls.values() for cl in pd.clauses
              for t in (*(u for _, u in cl.ctx), cl.offer_type)]
    bodies = [cl.body for pdef in sig.procdefs.values() for cl in pdef.clauses]
    return any(td.arity for td in sig.typedefs.values()) or \
        any(pd.arity for pd in sig.procdecls.values()) or \
        not all(map(type_is_ground, types)) or any(map(_uses_index, bodies))


def _uses_index(p: ProcExpr) -> bool:
    """Whether a delay count or cut annotation in `p` is not ground.  Call
    indices need no scan: a call that has any names an indexed family."""
    match p:
        case Delay(count=count) if not isinstance(count, int):
            return True
        case Cut(annot=annot) if not type_is_ground(annot):
            return True
    return any(map(_uses_index, subprocs(p)))

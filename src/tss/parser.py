"""Recursive-descent parser producing a Signature, plus the name-resolution
pass that fixes up bare tail calls and checks definition arities."""

from __future__ import annotations

from . import ast
from .ast import (Box, Case, Close, Cut, DeclClause, DefClause, Delay, Diamond,
                  Fwd, IAdd, IMul, IVar, IndexExpr, IndexPat, Lolli, Now, ONE,
                  Origin, PatConst, PatSucc, PatVar, Plus, ProcDecl, ProcDef,
                  ProcExpr, RecvChan, SendChan, SendLabel, SessionType,
                  Signature, Spawn, TailCall, Tensor, TypeClause, TypeDef,
                  TypeName, Wait, When, With, bound_by, map_subprocs,
                  next_type, type_refs)
from .errors import ParseError, ScopeError
from .lexer import Token, tokenize

# How deeply types, process bodies and index expressions may nest.  Every later pass walks the
# syntax tree recursively, so a deeper term would end in a RecursionError
# instead of an error naming this bound.
MAX_NESTING = 100

# How many digits a natural literal may have.  Python's `int` refuses a
# decimal string beyond 4,300 digits; no count or index needs a tenth of
# that.
MAX_NAT_DIGITS = 1000


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0  # nesting level of the sub-term being parsed

    # Token plumbing --------------------------------------------------------
    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def at(self, *kinds: str) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {t.value!r}", t.line, t.col, (kind,))
        return self.next()

    def fail(self, msg: str, *expected: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col, expected)

    def nat(self) -> int:
        """A natural literal of at most MAX_NAT_DIGITS digits."""
        t = self.expect("NAT")
        if len(t.value) > MAX_NAT_DIGITS:
            raise ParseError(f"a natural may have at most {MAX_NAT_DIGITS} "
                             f"digits", t.line, t.col)
        return int(t.value)

    def nested(self, parse):
        """Parse a sub-term one nesting level down."""
        if self.depth >= MAX_NESTING:
            self.fail(f"terms may nest at most {MAX_NESTING} levels deep")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # Index expressions ------------------------------------------------------
    # `a + b + c` nests to the left, so each operator of a chain counts as
    # one more level.
    def index_expr(self) -> IndexExpr:
        outer = self.depth
        e = self.index_term()
        while self.at("+"):
            self.next()
            r = self.nested(self.index_term)
            self.depth += 1
            e = r + e if isinstance(e, int) and isinstance(r, int) else IAdd(e, r)
        self.depth = outer
        return e

    def index_term(self) -> IndexExpr:
        outer = self.depth
        e = self.index_factor()
        while self.at("*"):
            self.next()
            r = self.nested(self.index_factor)
            self.depth += 1
            e = e * r if isinstance(e, int) and isinstance(r, int) else IMul(e, r)
        self.depth = outer
        return e

    def index_factor(self) -> IndexExpr:
        if self.at("NAT"):
            return self.nat()
        if self.at("IDENT"):
            return IVar(self.next().value)
        if self.at("("):
            self.next()
            e = self.nested(self.index_expr)
            self.expect(")")
            return e
        self.fail("expected index expression", "NAT", "IDENT", "(")

    def index_args(self) -> tuple[IndexExpr, ...]:
        """Optional `[e, ...]` argument list after a name."""
        if not self.at("["):
            return ()
        self.next()
        args = [self.index_expr()]
        while self.at(","):
            self.next()
            args.append(self.index_expr())
        self.expect("]")
        return tuple(args)

    def index_patterns(self) -> tuple[IndexPat, ...]:
        """Optional `[p, ...]` pattern list on a definition head."""
        if not self.at("["):
            return ()
        self.next()
        pats = [self.index_pattern()]
        while self.at(","):
            self.next()
            pats.append(self.index_pattern())
        self.expect("]")
        return tuple(pats)

    def index_pattern(self) -> IndexPat:
        if self.at("NAT"):
            return PatConst(self.nat())
        name = self.expect("IDENT").value
        if self.at("+"):
            self.next()
            off = self.nat()
            return PatSucc(name, off)
        return PatVar(name)

    # Types -------------------------------------------------------------------
    def type_(self) -> SessionType:
        t = self.type_tensor()
        if self.at("-o"):
            self.next()
            return Lolli(t, self.nested(self.type_))
        return t

    def type_tensor(self) -> SessionType:
        t = self.type_atom()
        if self.at("*"):
            self.next()
            return Tensor(t, self.nested(self.type_tensor))
        return t

    def type_atom(self) -> SessionType:
        t = self.peek()
        if t.kind == "+":
            self.next()
            return Plus(self.nested(self.branches))
        if t.kind == "&":
            self.next()
            return With(self.nested(self.branches))
        if t.kind == "NAT":
            if t.value != "1":
                self.fail("only the type 1 is a numeric type")
            self.next()
            return ONE
        if t.kind == "(":
            if self.peek(1).kind == ")":
                self.next()
                self.next()
                count: IndexExpr = 1
                if self.at("^"):
                    self.next()
                    count = self.next_count()
                return next_type(count, self.nested(self.type_atom))
            self.next()
            inner = self.nested(self.type_)
            self.expect(")")
            return inner
        if t.kind == "[":
            self.next()
            self.expect("]")
            return Box(self.nested(self.type_atom))
        if t.kind == "<>":
            self.next()
            return Diamond(self.nested(self.type_atom))
        if t.kind == "IDENT":
            self.next()
            return TypeName(t.value, self.index_args())
        self.fail("expected a type", "+", "&", "1", "()", "[]", "<>", "IDENT")

    def next_count(self) -> IndexExpr:
        if self.at("NAT"):
            return self.nat()
        if self.at("IDENT"):
            return IVar(self.next().value)
        if self.at("{"):
            self.next()
            e = self.index_expr()
            self.expect("}")
            return e
        self.fail("expected a delay count", "NAT", "IDENT", "{")

    def branches(self) -> tuple[tuple[str, SessionType], ...]:
        self.expect("{")
        out = [self.branch()]
        seen = {out[0][0]}
        while self.at(","):
            self.next()
            lab, ty = self.branch()
            if lab in seen:
                self.fail(f"duplicate branch label {lab!r}")
            seen.add(lab)
            out.append((lab, ty))
        self.expect("}")
        return tuple(out)

    def branch(self) -> tuple[str, SessionType]:
        lab = self.expect("IDENT").value
        self.expect(":")
        return lab, self.type_()

    # Processes -----------------------------------------------------------------
    def proc(self) -> ProcExpr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "case":
            self.next()
            chan = self.expect("IDENT").value
            self.expect("(")
            branches = [self.nested(self.case_branch)]
            seen = {branches[0][0]}
            while self.at("|"):
                self.next()
                lab, body = self.nested(self.case_branch)
                if lab in seen:
                    self.fail(f"duplicate case label {lab!r}")
                seen.add(lab)
                branches.append((lab, body))
            self.expect(")")
            return Case(chan, tuple(branches), pos=pos)
        if t.kind == "close":
            self.next()
            return Close(self.expect("IDENT").value, pos=pos)
        if t.kind == "wait":
            self.next()
            chan = self.expect("IDENT").value
            self.expect(";")
            return Wait(chan, self.nested(self.proc), pos=pos)
        if t.kind == "send":
            self.next()
            chan = self.expect("IDENT").value
            payload = self.expect("IDENT").value
            self.expect(";")
            return SendChan(chan, payload, self.nested(self.proc), pos=pos)
        if t.kind == "delay":
            self.next()
            count: ast.IndexExpr = 1
            if self.at("{"):
                self.next()
                count = self.index_expr()
                self.expect("}")
            self.expect(";")
            return Delay(count, Origin.SOURCE, self.nested(self.proc), pos=pos)
        if t.kind == "tick":
            self.next()
            self.expect(";")
            return Delay(1, Origin.TICK, self.nested(self.proc), pos=pos)
        if t.kind == "WHEN":
            self.next()
            chan = self.expect("IDENT").value
            self.expect(";")
            return When(chan, self.nested(self.proc), pos=pos)
        if t.kind == "NOW":
            self.next()
            chan = self.expect("IDENT").value
            self.expect(";")
            return Now(chan, self.nested(self.proc), pos=pos)
        if t.kind == "(":
            self.next()
            p = self.nested(self.proc)
            self.expect(")")
            return p
        if t.kind == "IDENT":
            name = self.next().value
            if self.at("."):
                self.next()
                label = self.expect("IDENT").value
                self.expect(";")
                return SendLabel(name, label, self.nested(self.proc), pos=pos)
            if self.at(":"):
                self.next()
                annot = self.nested(self.type_)
                self.expect("<-")
                body = self.nested(self.cut_body)
                self.expect(";")
                return Cut(name, annot, body, self.nested(self.proc), pos=pos)
            if self.at("<-"):
                self.next()
                if self.at("recv"):
                    self.next()
                    chan = self.expect("IDENT").value
                    self.expect(";")
                    return RecvChan(name, chan, self.nested(self.proc), pos=pos)
                callee = self.expect("IDENT").value
                args = self.index_args()
                chans: list[str] = []
                has_chan_arrow = False
                if self.at("<-"):
                    has_chan_arrow = True
                    self.next()
                    while self.at("IDENT"):
                        chans.append(self.next().value)
                if self.at(";"):
                    self.next()
                    return Spawn(name, callee, args, tuple(chans), self.nested(self.proc), pos=pos)
                if has_chan_arrow or args:
                    return TailCall(name, callee, args, tuple(chans), pos=pos)
                # Bare `x <- y`: forward, unless y resolves to a process name.
                return Fwd(name, callee, pos=pos)
        self.fail("expected a process expression")

    def cut_body(self) -> ProcExpr:
        # Compound bodies must be parenthesized so `;` binds unambiguously.
        if self.at("("):
            self.next()
            p = self.proc()
            self.expect(")")
            return p
        t = self.peek()
        if t.kind == "close":
            self.next()
            return Close(self.expect("IDENT").value, pos=(t.line, t.col))
        if t.kind == "IDENT":
            name = self.next().value
            self.expect("<-")
            callee = self.expect("IDENT").value
            args = self.index_args()
            chans: list[str] = []
            if self.at("<-"):
                self.next()
                while self.at("IDENT"):
                    chans.append(self.next().value)
                return TailCall(name, callee, args, tuple(chans), pos=(t.line, t.col))
            if args:
                return TailCall(name, callee, args, (), pos=(t.line, t.col))
            return Fwd(name, callee, pos=(t.line, t.col))
        self.fail("expected a cut body (parenthesize compound processes)")

    def case_branch(self) -> tuple[str, ProcExpr]:
        lab = self.expect("IDENT").value
        self.expect("=>")
        return lab, self.proc()

    # Top level ---------------------------------------------------------------
    def program(self) -> Signature:
        sig = Signature()
        while not self.at("EOF"):
            t = self.peek()
            if t.kind == "type":
                self.next()
                name = self.expect("IDENT").value
                pats = self.index_patterns()
                self.expect("=")
                body = self.type_()
                clause = TypeClause(pats, body, pos=(t.line, t.col))
                td = sig.typedefs.setdefault(name, TypeDef(name, []))
                if td.clauses and len(td.clauses[0].patterns) != len(pats):
                    raise ParseError(f"clauses of '{name}' disagree on arity",
                                     t.line, t.col)
                _add_clause(td, clause, "type definition")
            elif t.kind == "decl":
                self.next()
                name = self.expect("IDENT").value
                pats = self.index_patterns()
                self.expect(":")
                ctx: list[tuple[str, SessionType]] = []
                if self.at("."):
                    self.next()
                else:
                    while self.at("("):
                        self.next()
                        chan = self.expect("IDENT").value
                        self.expect(":")
                        ctx.append((chan, self.type_()))
                        self.expect(")")
                self.expect("|-")
                self.expect("(")
                offer_chan = self.expect("IDENT").value
                self.expect(":")
                offer_type = self.type_()
                self.expect(")")
                if len({c for c, _ in ctx} | {offer_chan}) != len(ctx) + 1:
                    raise ParseError(f"duplicate channel name in decl '{name}'",
                                     t.line, t.col)
                clause = DeclClause(pats, tuple(ctx), offer_chan, offer_type,
                                    pos=(t.line, t.col))
                pd = sig.procdecls.setdefault(name, ProcDecl(name, []))
                if pd.clauses and len(pd.clauses[0].patterns) != len(pats):
                    raise ParseError(f"decl clauses of '{name}' disagree on arity",
                                     t.line, t.col)
                _add_clause(pd, clause, "declaration")
            elif t.kind == "proc":
                self.next()
                dest = self.expect("IDENT").value
                self.expect("<-")
                name = self.expect("IDENT").value
                pats = self.index_patterns()
                chans: list[str] = []
                if self.at("<-"):
                    self.next()
                    while self.at("IDENT"):
                        chans.append(self.next().value)
                self.expect("=")
                body = self.proc()
                clause = DefClause(pats, dest, tuple(chans), body, pos=(t.line, t.col))
                pdef = sig.procdefs.setdefault(name, ProcDef(name, []))
                _add_clause(pdef, clause, "process definition")
            else:
                self.fail("expected a definition", "type", "decl", "proc")
        return sig


def _add_clause(defn, clause, what: str) -> None:
    """Append `clause` to `defn`.  Clauses select by index, so a name
    without indices has one."""
    if defn.clauses and not clause.patterns:
        line, col = defn.clauses[0].pos
        raise ScopeError(f"second {what} of '{defn.name}' (the first is at "
                         f"{line}:{col})", clause.pos)
    defn.clauses.append(clause)


# ---------------------------------------------------------------------------
# Resolution: rewrite bare forwards to tail calls, check names and arities.

def _resolve_proc(p: ProcExpr, bound: frozenset[str], sig: Signature) -> ProcExpr:
    match p:
        case Fwd(dest, src):
            if src not in bound and src in sig.procdecls:
                return TailCall(dest, src, (), (), pos=p.pos)
            return p
        case Spawn(_, proc, args) | TailCall(_, proc, args):
            _check_call(proc, args, sig, p)
        case Cut(_, annot):
            _check_type(annot, sig, p.pos)
    binder = bound_by(p)
    inner = bound.union(binder) if binder else bound
    return map_subprocs(p, lambda q: _resolve_proc(q, inner, sig))


def _check_call(name: str, args, sig: Signature, node) -> None:
    if name not in sig.procdecls:
        raise ScopeError(f"call to undeclared process '{name}'", node.pos)
    arity = sig.procdecls[name].arity
    if len(args) != arity:
        raise ScopeError(f"process '{name}' takes {arity} index argument(s), "
                         f"got {len(args)}", node.pos)


def _check_type(t: SessionType, sig: Signature, pos) -> None:
    for ref in type_refs(t):
        if not isinstance(ref, TypeName):
            continue
        if ref.name not in sig.typedefs:
            raise ScopeError(f"reference to undefined type '{ref.name}'", pos)
        arity = sig.typedefs[ref.name].arity
        if len(ref.args) != arity:
            raise ScopeError(f"type '{ref.name}' takes {arity} index "
                             f"argument(s), got {len(ref.args)}", pos)


def resolve(sig: Signature) -> Signature:
    for td in sig.typedefs.values():
        for cl in td.clauses:
            _check_type(cl.body, sig, cl.pos)
    for pd in sig.procdecls.values():
        for cl in pd.clauses:
            for _, t in cl.ctx:
                _check_type(t, sig, cl.pos)
            _check_type(cl.offer_type, sig, cl.pos)
    for pdef in sig.procdefs.values():
        if pdef.name not in sig.procdecls:
            raise ScopeError(f"process '{pdef.name}' has a definition but "
                             f"no decl", pdef.clauses[0].pos)
        decl = sig.procdecls[pdef.name]
        for cl in pdef.clauses:
            if len(cl.patterns) != decl.arity:
                raise ScopeError(f"def clause of '{pdef.name}' disagrees with its "
                                 f"decl on index arity", cl.pos)
            if any(len(cl.chans) != len(d.ctx) for d in decl.clauses):
                # All decl clauses of a name share the context length.
                lens = {len(d.ctx) for d in decl.clauses}
                if len(cl.chans) not in lens:
                    raise ScopeError(f"def of '{pdef.name}' binds {len(cl.chans)} "
                                     f"channels but the decl lists {sorted(lens)}",
                                     cl.pos)
            bound = frozenset(cl.chans) | {cl.dest}
            cl.body = _resolve_proc(cl.body, bound, sig)
    return sig


def parse_program(text: str) -> Signature:
    """Parse and resolve a whole program; raises ParseError/ScopeError."""
    return resolve(_Parser(text).program())


def parse_type(text: str) -> SessionType:
    """Parse one session type, such as a `tss subtype` operand; raises
    ParseError."""
    p = _Parser(text)
    t = p.type_()
    p.expect("EOF")
    return t

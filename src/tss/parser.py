"""Recursive-descent parser producing a Signature, plus the name-resolution
pass that fixes up bare tail calls and checks definition arities.

Each production is read in one place: `bracketed` reads `[item, ...]`,
`labelled` type branches and case branches, `chans` the channels after a
`<-`, `call` what follows `x <-`, `chain` a `+` or `*` chain, `parens` a
parenthesized term, `then` the `; P` after an action and `_PREFIXES` the
one-channel prefixes; `_file` files a definition clause."""

from __future__ import annotations

import operator

from .ast import (Box, Case, Close, Cut, DeclClause, DefClause, Delay, Diamond,
                  Fwd, IAdd, IMul, IVar, IndexExpr, IndexPat, Lolli, Now, ONE,
                  Origin, PatConst, PatSucc, PatVar, Plus, ProcDecl, ProcDef,
                  ProcExpr, RecvChan, SendChan, SendLabel, SessionType,
                  Signature, Spawn, TailCall, Tensor, TypeClause, TypeDef,
                  TypeName, Wait, When, With, bound_by, map_subprocs,
                  next_type, type_refs)
from .errors import ParseError, ScopeError
from .lexer import Token, tokenize

# How deeply types, process bodies and index expressions may nest.  Every
# later pass walks the syntax tree recursively, so a deeper term would end in
# a RecursionError instead of an error naming this bound.
MAX_NESTING = 100

# How many digits a natural literal may have.  Python's `int` refuses a
# decimal string beyond 4,300 digits; no count or index needs a tenth of
# that.
MAX_NAT_DIGITS = 1000

# The prefixes `c ; P` that name one channel.
_PREFIXES = {"wait": Wait, "WHEN": When, "NOW": Now}


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        self.tok = self.toks[0]  # the current token, `toks[i]`
        self.depth = 0  # nesting level of the sub-term being parsed

    # Token plumbing --------------------------------------------------------
    def next(self) -> Token:
        """The current token; the parser moves past it unless it is EOF."""
        t = self.tok
        if t.kind != "EOF":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def at(self, kind: str) -> bool:
        return self.tok.kind == kind

    def expect(self, kind: str) -> Token:
        t = self.tok
        if t.kind != kind:
            raise ParseError(f"unexpected {t.value!r}", t.line, t.col, (kind,))
        if kind != "EOF":
            self.i += 1
            self.tok = self.toks[self.i]
        return t

    def fail(self, msg: str, *expected: str):
        t = self.tok
        raise ParseError(msg, t.line, t.col, expected)

    def nat(self) -> int:
        """A natural literal of at most MAX_NAT_DIGITS digits."""
        t = self.expect("NAT")
        if len(t.value) > MAX_NAT_DIGITS:
            raise ParseError(f"a natural may have at most {MAX_NAT_DIGITS} "
                             f"digits", t.line, t.col)
        return int(t.value)

    def nested(self, parse, *args):
        """Parse a sub-term one nesting level down."""
        if self.depth >= MAX_NESTING:
            self.fail(f"terms may nest at most {MAX_NESTING} levels deep")
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def parens(self, parse):
        """`(...)` around an index expression, a type or a process."""
        self.next()
        inside = self.nested(parse)
        self.expect(")")
        return inside

    def bracketed(self, item) -> tuple:
        """An optional `[item, ...]` of index arguments or index patterns."""
        if not self.at("["):
            return ()
        items = []
        while not items or self.at(","):
            self.next()  # the `[` or a `,`
            items.append(item())
        self.expect("]")
        return tuple(items)

    def labelled(self, sep: str, close: str, arrow: str, body, what: str):
        """A labelled list after its opening bracket, `l : T, ...}` or
        `l => P | ...)`, whose labels differ."""
        items = {}
        while True:
            lab = self.expect("IDENT").value
            self.expect(arrow)
            item = body()
            if lab in items:
                self.fail(f"duplicate {what} label {lab!r}")
            items[lab] = item
            if not self.at(sep):
                self.expect(close)
                return tuple(items.items())
            self.next()

    def chans(self) -> tuple[str, ...] | None:
        """`<- ys` after a callee or a `proc` head; None without the `<-`."""
        if not self.at("<-"):
            return None
        self.next()
        chans = []
        while self.at("IDENT"):
            chans.append(self.next().value)
        return tuple(chans)

    # Index expressions ------------------------------------------------------
    def index_expr(self) -> IndexExpr:
        return self.chain("+", self.index_term, operator.add, IAdd)

    def index_term(self) -> IndexExpr:
        return self.chain("*", self.index_factor, operator.mul, IMul)

    def chain(self, op: str, operand, fold, node) -> IndexExpr:
        """`a op b op c`, nested to the left, so each operator of the chain
        counts as one more level.  Literal operands fold."""
        outer = self.depth
        e = operand()
        while self.at(op):
            self.next()
            r = self.nested(operand)
            self.depth += 1
            e = fold(e, r) if isinstance(e, int) and isinstance(r, int) else node(e, r)
        self.depth = outer
        return e

    def index_factor(self) -> IndexExpr:
        if self.at("NAT"):
            return self.nat()
        if self.at("IDENT"):
            return IVar(self.next().value)
        if self.at("("):
            return self.parens(self.index_expr)
        self.fail("expected index expression", "NAT", "IDENT", "(")

    def index_pattern(self) -> IndexPat:
        if self.at("NAT"):
            return PatConst(self.nat())
        name = self.expect("IDENT").value
        if self.at("+"):
            self.next()
            return PatSucc(name, self.nat())
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
        t = self.tok
        if t.kind == "+" or t.kind == "&":
            self.next()
            return (Plus if t.kind == "+" else With)(self.nested(self.branches))
        if t.kind == "NAT":
            if t.value != "1":
                self.fail("only the type 1 is a numeric type")
            self.next()
            return ONE
        if t.kind == "(":
            if self.toks[self.i + 1].kind == ")":
                self.next()
                self.next()
                count = self.next_count() if self.at("^") else 1
                return next_type(count, self.nested(self.type_atom))
            return self.parens(self.type_)
        if t.kind == "[":
            self.next()
            self.expect("]")
            return Box(self.nested(self.type_atom))
        if t.kind == "<>":
            self.next()
            return Diamond(self.nested(self.type_atom))
        if t.kind == "IDENT":
            self.next()
            return TypeName(t.value, self.bracketed(self.index_expr))
        self.fail("expected a type", "+", "&", "1", "()", "[]", "<>", "IDENT")

    def next_count(self) -> IndexExpr:
        """`^n`, `^x` or `^{e}` after a `()`."""
        self.next()
        if self.at("NAT"):
            return self.nat()
        if self.at("IDENT"):
            return IVar(self.next().value)
        if self.at("{"):
            return self.braced()
        self.fail("expected a delay count", "NAT", "IDENT", "{")

    def braced(self) -> IndexExpr:
        """`{e}`, a delay count."""
        self.expect("{")
        e = self.index_expr()
        self.expect("}")
        return e

    def branches(self) -> tuple[tuple[str, SessionType], ...]:
        self.expect("{")
        return self.labelled(",", "}", ":", self.type_, "branch")

    def typed_chan(self) -> tuple[str, SessionType]:
        """`(x : T)` in a decl."""
        self.expect("(")
        chan = self.expect("IDENT").value
        self.expect(":")
        t = self.type_()
        self.expect(")")
        return chan, t

    # Processes -----------------------------------------------------------------
    def proc(self) -> ProcExpr:
        t = self.tok
        pos = (t.line, t.col)
        prefix = _PREFIXES.get(t.kind)
        if prefix is not None:
            self.next()
            return prefix(self.expect("IDENT").value, self.then(), pos=pos)
        if t.kind == "case":
            self.next()
            chan = self.expect("IDENT").value
            self.expect("(")
            return Case(chan, self.nested(self.labelled, "|", ")", "=>",
                                          self.proc, "case"), pos=pos)
        if t.kind == "close":
            self.next()
            return Close(self.expect("IDENT").value, pos=pos)
        if t.kind == "send":
            self.next()  # then the channel and the payload
            return SendChan(self.expect("IDENT").value,
                            self.expect("IDENT").value, self.then(), pos=pos)
        if t.kind == "delay":
            self.next()
            count = self.braced() if self.at("{") else 1
            return Delay(count, Origin.SOURCE, self.then(), pos=pos)
        if t.kind == "tick":
            self.next()
            return Delay(1, Origin.TICK, self.then(), pos=pos)
        if t.kind == "(":
            return self.parens(self.proc)
        if t.kind == "IDENT":
            name = self.next().value
            if self.at("."):
                self.next()
                return SendLabel(name, self.expect("IDENT").value, self.then(),
                                 pos=pos)
            if self.at(":"):
                self.next()
                return Cut(name, self.nested(self.type_), self.cut_body(),
                           self.then(), pos=pos)
            if self.at("<-"):
                self.next()
                if self.at("recv"):
                    self.next()
                    return RecvChan(name, self.expect("IDENT").value,
                                    self.then(), pos=pos)
                return self.call(name, pos, True)
        self.fail("expected a process expression")

    def then(self) -> ProcExpr:
        """`; P`, the rest of a body after an action, one level down."""
        self.expect(";")
        return self.nested(self.proc)

    def cut_body(self) -> ProcExpr:
        """`<- Q`, a cut's body, one level down.  A compound body must be
        parenthesized so `;` binds unambiguously."""
        self.expect("<-")
        t = self.tok
        if t.kind == "(" or t.kind == "close":
            return self.proc()
        if t.kind == "IDENT":
            self.next()
            self.expect("<-")
            return self.nested(self.call, t.value, (t.line, t.col), False)
        self.fail("expected a cut body (parenthesize compound processes)")

    def call(self, name: str, pos, spawn: bool) -> ProcExpr:
        """What follows `x <-`: a spawn `f[e] <- ys ; P` (in a body, not a
        cut body), a tail call `f[e] <- ys` or a forward `y`."""
        callee = self.expect("IDENT").value
        args = self.bracketed(self.index_expr)
        chans = self.chans()
        if spawn and self.at(";"):
            return Spawn(name, callee, args, chans or (), self.then(), pos=pos)
        if chans is not None or args:
            return TailCall(name, callee, args, chans or (), pos=pos)
        # Bare `x <- y`: forward, unless y resolves to a process name.
        return Fwd(name, callee, pos=pos)

    # Top level ---------------------------------------------------------------
    def program(self) -> Signature:
        sig = Signature()
        while not self.at("EOF"):
            t = self.tok
            if t.kind not in ("type", "decl", "proc"):
                self.fail("expected a definition", "type", "decl", "proc")
            self.next()
            pos = (t.line, t.col)
            if t.kind == "proc":
                dest = self.expect("IDENT").value
                self.expect("<-")
            name = self.expect("IDENT").value
            pats = self.bracketed(self.index_pattern)
            if t.kind == "type":
                self.expect("=")
                _file(sig.typedefs, TypeDef, name,
                      TypeClause(pats, self.type_(), pos=pos),
                      "type definition", "clauses")
            elif t.kind == "decl":
                self.expect(":")
                ctx: list[tuple[str, SessionType]] = []
                if self.at("."):
                    self.next()
                else:
                    while self.at("("):
                        ctx.append(self.typed_chan())
                self.expect("|-")
                offer_chan, offer_type = self.typed_chan()
                if len({c for c, _ in ctx} | {offer_chan}) != len(ctx) + 1:
                    raise ParseError(f"duplicate channel name in decl '{name}'",
                                     *pos)
                _file(sig.procdecls, ProcDecl, name,
                      DeclClause(pats, tuple(ctx), offer_chan, offer_type,
                                 pos=pos), "declaration", "decl clauses")
            else:
                chans = self.chans() or ()
                self.expect("=")
                _file(sig.procdefs, ProcDef, name,
                      DefClause(pats, dest, chans, self.proc(), pos=pos),
                      "process definition", None)
        return sig



def _file(table: dict, kind, name: str, clause, what: str,
          arity: str | None) -> None:
    """File `clause`, a `what`, under `name`.  The clauses of a type or a
    decl share their `arity`; an index-free name has one clause."""
    defn = table.setdefault(name, kind(name, []))
    if defn.clauses:
        line, col = defn.clauses[0].pos
        if arity and len(defn.clauses[0].patterns) != len(clause.patterns):
            raise ParseError(f"{arity} of '{name}' disagree on arity",
                             *clause.pos)
        if not clause.patterns:
            raise ScopeError(f"second {what} of '{name}' (the first is at "
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
            _check_ref(sig.procdecls, proc, args, p.pos, "process",
                       "call to undeclared process")
        case Cut(_, annot):
            _check_type(annot, sig, p.pos)
    binder = bound_by(p)
    inner = bound.union(binder) if binder else bound
    return map_subprocs(p, lambda q: _resolve_proc(q, inner, sig))


def _check_type(t: SessionType, sig: Signature, pos) -> None:
    for ref in type_refs(t):
        if isinstance(ref, TypeName):
            _check_ref(sig.typedefs, ref.name, ref.args, pos, "type",
                       "reference to undefined type")


def _check_ref(table: dict, name: str, args, pos, what: str,
               missing: str) -> None:
    """`name[args]` names a definition in `table` and gives it as many
    indices as it takes."""
    if name not in table:
        raise ScopeError(f"{missing} '{name}'", pos)
    arity = table[name].arity
    if len(args) != arity:
        raise ScopeError(f"{what} '{name}' takes {arity} index argument(s), "
                         f"got {len(args)}", pos)


def resolve(sig: Signature) -> Signature:
    for td in sig.typedefs.values():
        for cl in td.clauses:
            _check_type(cl.body, sig, cl.pos)
    for pd in sig.procdecls.values():
        for cl in pd.clauses:
            for _, t in (*cl.ctx, (cl.offer_chan, cl.offer_type)):
                _check_type(t, sig, cl.pos)
    for pdef in sig.procdefs.values():
        if pdef.name not in sig.procdecls:
            raise ScopeError(f"process '{pdef.name}' has a definition but "
                             f"no decl", pdef.clauses[0].pos)
        decl = sig.procdecls[pdef.name]
        for cl in pdef.clauses:
            if len(cl.patterns) != decl.arity:
                raise ScopeError(f"def clause of '{pdef.name}' disagrees with its "
                                 f"decl on index arity", cl.pos)
            lens = {len(d.ctx) for d in decl.clauses}
            if len(cl.chans) not in lens:
                raise ScopeError(f"def of '{pdef.name}' binds {len(cl.chans)} "
                                 f"channels but the decl lists {sorted(lens)}",
                                 cl.pos)
            cl.body = _resolve_proc(cl.body, frozenset(cl.chans) | {cl.dest}, sig)
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

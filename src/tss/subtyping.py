"""Decision procedures for temporal subtyping and for the weak
configuration-level relation.

Every subtyping rule has one premise, so a search for `a <: b` is a single
path of goals.  The main procedure keeps that path on one explicit stack,
never one Python frame per goal, and backtracks over its only choices:
`[]L` against `<>R`, and the unit rules `[]()` and `()<>` against `[]L` and
`<>R`.  It tests reflexivity first and cancels the delays both sides share
eagerly.  A delay run is no special case: each of its units is one goal,
on the stack and of the budget.  Revisiting a goal on the current search
path counts as failure: the rules are an inductive system, so a derivation
may not be self-supporting."""

from __future__ import annotations

from .ast import Box, Diamond, SessionType, TypeName, next_type
from .errors import BudgetExceededError
from .typeops import TypeOps


def is_subtype(ops: TypeOps, a: SessionType, b: SessionType,
               budget: int = 100_000, trace: list[str] | None = None,
               memo: dict | None = None) -> bool:
    """Decide the subtype relation.  A shared `memo` dict may be supplied
    when deciding many pairs; results whose search never ran into a cycle
    on the current path are recorded in it (a cycle-tainted failure is only
    valid for the path that produced it, so it is not)."""
    return _Search(ops, budget, trace, {} if memo is None else memo).sub(a, b)


class _Search:
    """The state of one `is_subtype` query.  Every rule has one premise, so
    the search is one path of open goals, kept on a stack, and backtracks
    over each open goal's untried rules.  (An object rather than nested
    closures: closures that call each other form a reference cycle, which
    only the cycle collector frees.)"""

    __slots__ = ("ops", "budget", "trace", "memo", "steps", "cycles")

    def __init__(self, ops: TypeOps, budget: int, trace: list[str] | None,
                 memo: dict):
        self.ops = ops
        self.budget = budget
        self.trace = trace
        self.memo = memo
        self.steps = 0
        self.cycles = 0

    def sub(self, a: SessionType, b: SessionType) -> bool:
        ops, memo, trace = self.ops, self.memo, self.trace
        path: set = set()
        # The open goals, each as [key, rules, next rule, cycles met before
        # it opened, trace length before its rules].
        stack: list[list] = []
        while True:
            self.steps += 1
            if self.steps > self.budget:
                raise BudgetExceededError("subtyping budget exceeded")
            key = (a, b)
            if key in memo:
                ok = memo[key]
            elif key in path:
                self.cycles += 1
                ok = False
            elif ops.type_equal(a, b):
                if trace is not None:
                    trace.append("refl")
                memo[key] = ok = True
            else:
                rules = self.rules(a, b)
                if rules:
                    path.add(key)
                    stack.append([key, rules, 1, self.cycles,
                                  0 if trace is None else len(trace)])
                    name, a, b = rules[0]
                    if trace is not None:
                        trace.append(name)
                    continue
                memo[key] = ok = False
            if ok:  # the goal proves every open goal
                for goal in reversed(stack):
                    memo[goal[0]] = True
                return True
            while stack:  # the last open goal with a rule left tries it
                goal = stack[-1]
                key, rules, i, seen_cycles, mark = goal
                if trace is not None:
                    del trace[mark:]
                if i < len(rules):
                    goal[2] = i + 1
                    name, a, b = rules[i]
                    if trace is not None:
                        trace.append(name)
                    break
                stack.pop()
                path.discard(key)
                if self.cycles == seen_cycles:
                    memo[key] = False
            else:
                return False

    def rules(self, a: SessionType, b: SessionType) -> tuple:
        """The rules for `a <: b` in the order they are tried, each as
        (name, left, right) of its one premise.  The delays both sides
        share are cancelled first, traced once as `()()`."""
        na, ta = self.ops.strip(a)
        nb, tb = self.ops.strip(b)
        # An infinite delay tower (x = ()x) never exposes an action but
        # absorbs any finite number of delay steps, so only rules acting
        # on the opposite side can fire; equal towers were caught by refl.
        if isinstance(ta, TypeName):
            return (("<>R", a, tb.inner),) if isinstance(tb, Diamond) else ()
        if isinstance(tb, TypeName):
            return (("[]L", ta.inner, b),) if isinstance(ta, Box) else ()
        m = min(na, nb)
        if m and self.trace is not None:
            self.trace.append("()()")
        na, nb = na - m, nb - m

        if na == 0 and nb == 0:
            match ta, tb:
                case Box(), Box(ib):
                    return (("[]R", ta, ib),)
                case Box(ia), Diamond(ib):
                    return ("[]L", ia, tb), ("<>R", ta, ib)
                case Box(ia), _:
                    return (("[]L", ia, tb),)
                case Diamond(ia), Diamond():
                    return (("<>L", ia, tb),)
                case Diamond(), _:
                    return ()
                case _, Diamond(ib):
                    return (("<>R", ta, ib),)
            return ()
        if na:  # left has leading delays, right does not
            if isinstance(tb, Diamond):
                return (("()<>", next_type(na - 1, ta), tb),
                        ("<>R", next_type(na, ta), tb.inner))
            if isinstance(tb, Box) and isinstance(ta, Box):
                return (("[]R", next_type(na, ta), tb.inner),)
            return ()
        # right has leading delays, left does not
        if isinstance(ta, Box):
            return (("[]()", ta, next_type(nb - 1, tb)),
                    ("[]L", ta.inner, next_type(nb, tb)))
        if isinstance(ta, Diamond) and isinstance(tb, Diamond):
            return (("<>L", ta.inner, next_type(nb, tb)),)
        return ()


def subtype_oracle(ops: TypeOps, a: SessionType, b: SessionType,
                   memo: dict | None = None) -> bool:
    """Naive exhaustive search over every rule of the subtyping system,
    with no eager commitments; the reference the fast procedure is tested
    against."""
    return _Oracle(ops, {} if memo is None else memo).sub(a, b)


class _Oracle:
    """The state of one `subtype_oracle` query."""

    __slots__ = ("ops", "memo", "path", "cycles")

    def __init__(self, ops: TypeOps, memo: dict):
        self.ops = ops
        self.memo = memo
        self.path: set = set()
        self.cycles = 0

    def sub(self, a: SessionType, b: SessionType) -> bool:
        key = (a, b)
        memo, path, ops = self.memo, self.path, self.ops
        if key in memo:
            return memo[key]
        if key in path:
            self.cycles += 1
            return False
        if ops.type_equal(a, b):
            memo[key] = True
            return True
        path.add(key)
        seen_cycles = self.cycles
        try:
            na, ta = ops.strip(a)
            nb, tb = ops.strip(b)
            goals: list[tuple[SessionType, SessionType]] = []
            if isinstance(ta, TypeName) or isinstance(tb, TypeName):
                # Infinite delay towers: only the rules acting on the
                # opposite side remain applicable.
                if isinstance(ta, TypeName) and isinstance(tb, Diamond):
                    goals.append((a, tb.inner))
                if isinstance(tb, TypeName) and isinstance(ta, Box):
                    goals.append((ta.inner, b))
                ok = any(self.sub(x, y) for x, y in goals)
                if ok or self.cycles == seen_cycles:
                    memo[key] = ok
                return ok
            if na >= 1 and nb >= 1:  # ()()
                goals.append((next_type(na - 1, ta), next_type(nb - 1, tb)))
            if na == 0 and isinstance(ta, Box) and nb >= 1:  # []()
                goals.append((a, next_type(nb - 1, tb)))
            if na >= 1 and nb == 0 and isinstance(tb, Diamond):  # ()<>
                goals.append((next_type(na - 1, ta), b))
            if isinstance(ta, Box) and nb == 0 and isinstance(tb, Box):  # []R
                goals.append((a, tb.inner))
            if na == 0 and isinstance(ta, Box):  # []L
                goals.append((ta.inner, b))
            if nb == 0 and isinstance(tb, Diamond):  # <>R
                goals.append((a, tb.inner))
            if na == 0 and isinstance(ta, Diamond) and isinstance(tb, Diamond):  # <>L
                goals.append((ta.inner, b))
            ok = any(self.sub(x, y) for x, y in goals)
            if ok or self.cycles == seen_cycles:
                memo[key] = ok
            return ok
        finally:
            path.discard(key)


def is_weak_subtype(ops: TypeOps, a: SessionType, b: SessionType) -> bool:
    """Reflexivity plus sliding leading delays across a shared box or
    diamond: ()^m [] A <: ()^n [] A when m <= n, and dually for <> when
    m >= n."""
    if ops.type_equal(a, b):
        return True
    na, ta = ops.strip(a)
    nb, tb = ops.strip(b)
    if isinstance(ta, Box) and isinstance(tb, Box) and na <= nb:
        return ops.type_equal(ta.inner, tb.inner)
    if isinstance(ta, Diamond) and isinstance(tb, Diamond) and na >= nb:
        return ops.type_equal(ta.inner, tb.inner)
    return False

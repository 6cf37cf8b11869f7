"""Decision procedures for temporal subtyping and for the weak
configuration-level relation.

The main procedure tests reflexivity first, applies the always-safe rules
eagerly, and backtracks over the two genuine decision points (box-left
against a delayed right, delay-left against an eventually-right).  Revisiting
a goal on the current search path counts as failure: the rules are an
inductive system, so a derivation may not be self-supporting.
"""

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
    """The state of one `is_subtype` query.  (An object rather than nested
    closures: closures that call each other form a reference cycle, which
    only the cycle collector frees.)"""

    __slots__ = ("ops", "budget", "trace", "memo", "steps", "cycles", "path",
                 "yes")

    def __init__(self, ops: TypeOps, budget: int, trace: list[str] | None,
                 memo: dict):
        self.ops = ops
        self.budget = budget
        self.trace = trace
        self.memo = memo
        self.steps = 0
        self.cycles = 0
        self.path: set = set()
        self.yes: set = set()

    def sub(self, a: SessionType, b: SessionType) -> bool:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceededError("subtyping budget exceeded")
        key = (a, b)
        memo = self.memo
        if key in memo:
            return memo[key]
        if key in self.yes:
            return True
        path = self.path
        if key in path:
            self.cycles += 1
            return False
        if self.ops.type_equal(a, b):
            if self.trace is not None:
                self.trace.append("refl")
            memo[key] = True
            return True
        path.add(key)
        seen_cycles = self.cycles
        try:
            ok = self.dispatch(a, b)
        finally:
            path.discard(key)
        if ok:
            self.yes.add(key)
            memo[key] = True
        elif self.cycles == seen_cycles:
            memo[key] = False
        return ok

    def dispatch(self, a: SessionType, b: SessionType) -> bool:
        rule = self.rule
        na, ta = self.ops.strip(a)
        nb, tb = self.ops.strip(b)
        # An infinite delay tower (x = ()x) never exposes an action but
        # absorbs any finite number of delay steps, so only rules acting
        # on the opposite side can fire.
        if isinstance(ta, TypeName) and isinstance(tb, TypeName):
            return False  # distinct towers; equal ones were caught by refl
        if isinstance(ta, TypeName):
            if isinstance(tb, Diamond):
                return rule("<>R", a, tb.inner)
            return False
        if isinstance(tb, TypeName):
            if isinstance(ta, Box):
                return rule("[]L", ta.inner, b)
            return False
        m = min(na, nb)
        if m and self.trace is not None:
            self.trace.append("()()")
        na, nb = na - m, nb - m

        if na == 0 and nb == 0:
            match ta, tb:
                case Box(), Box(ib):
                    return rule("[]R", ta, ib)
                case Box(ia), Diamond(ib):
                    return rule("[]L", ia, tb) or rule("<>R", ta, ib)
                case Box(ia), _:
                    return rule("[]L", ia, tb)
                case Diamond(ia), Diamond():
                    return rule("<>L", ia, tb)
                case Diamond(), _:
                    return False
                case _, Diamond(ib):
                    return rule("<>R", ta, ib)
                case _:
                    return False
        if na:  # left has leading delays, right does not
            if isinstance(tb, Diamond):
                return self.delay_run("()<>", tb, ta, na)
            if isinstance(tb, Box) and isinstance(ta, Box):
                return rule("[]R", next_type(na, ta), tb.inner)
            return False
        # right has leading delays, left does not
        if isinstance(ta, Box):
            return self.delay_run("[]()", ta, tb, nb)
        if isinstance(ta, Diamond) and isinstance(tb, Diamond):
            return rule("<>L", ta.inner, next_type(nb, tb))
        return False

    def delay_run(self, unit: str, modal: SessionType, base: SessionType,
                  n: int) -> bool:
        """`modal <: ()^n base` for a box (`unit` is `[]()`) or `()^n base <:
        modal` for a diamond (`()<>`), n >= 1: the unit rule, which leaves a
        goal of the same shape with one delay fewer, or else `[]L` or `<>R`.
        The run of units is a loop, not a recursion, so no run is too long
        for Python's stack.  Each goal on it with a delay left is looked up,
        kept and traced as `sub` does it (repeated here, so that `sub` pays
        no extra call), and its dispatch would take the unit rule again."""
        trace, memo, path = self.trace, self.memo, self.path
        box = unit == "[]()"
        opened = []  # key, cycle count and trace mark of each goal opened
        while True:
            n -= 1
            a, b = (modal, next_type(n, base)) if box else \
                (next_type(n, base), modal)
            if not n:  # the run's last goal, searched as any other
                ok = self.rule(unit, a, b)
                break
            mark = 0 if trace is None else len(trace)
            if trace is not None:
                trace.append(unit)
            self.steps += 1
            if self.steps > self.budget:
                raise BudgetExceededError("subtyping budget exceeded")
            key = (a, b)
            if key in memo:
                ok = memo[key]
            elif key in self.yes:
                ok = True
            elif key in path:
                self.cycles += 1
                ok = False
            elif self.ops.type_equal(a, b):
                if trace is not None:
                    trace.append("refl")
                memo[key] = ok = True
            else:
                path.add(key)
                opened.append((key, self.cycles, mark))
                continue
            if not ok and trace is not None:
                del trace[mark:]
            break
        # `ok` is now the verdict on the unit rule that left goal n + 1.
        while True:
            n += 1
            if not ok:
                ok = self.rule("[]L", modal.inner, next_type(n, base)) if box \
                    else self.rule("<>R", next_type(n, base), modal.inner)
            if not opened:  # goal n is the caller's
                return ok
            key, seen_cycles, mark = opened.pop()
            path.discard(key)
            if ok:
                self.yes.add(key)
                memo[key] = True
            else:
                if self.cycles == seen_cycles:
                    memo[key] = False
                if trace is not None:
                    del trace[mark:]

    def rule(self, name: str, a: SessionType, b: SessionType) -> bool:
        trace = self.trace
        if trace is None:
            return self.sub(a, b)
        mark = len(trace)
        trace.append(name)
        if self.sub(a, b):
            return True
        del trace[mark:]
        return False


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

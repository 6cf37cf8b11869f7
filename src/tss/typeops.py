"""Semantic operations on ground session types: contractiveness,
equirecursive unfolding and equality, one-step time shifts, patience.

Equality takes one of two exact procedures.  A type with no type name and
only literal delay counts has a canonical form, its delay runs merged and
its `+{}`/`&{}` branches sorted by label; two such types are equal iff
their canonical forms are the same interned node, so no search is needed.
Any other pair is decided coinductively: a bisimulation over
head-normalized states (leading-delay count, base type), memoizing visited
state pairs.  Revisiting a pair means the infinite unfoldings agree, so it
counts as success.  Both walk an explicit stack, never one Python frame
per level of a type.
"""

from __future__ import annotations

from typing import Optional

from .ast import (Box, Diamond, Lolli, Next, One, Plus, SessionType, Signature,
                  Tensor, TypeName, With, next_type)
from .errors import BudgetExceededError, ContractivenessError


def check_contractive(sig: Signature):
    """A definition may not be a bare name (`X = Y` is rejected)."""
    for name, td in sig.typedefs.items():
        for cl in td.clauses:
            if isinstance(cl.body, TypeName):
                raise ContractivenessError(name)


class TypeOps:
    """Type-level judgments over one ground signature.

    A `budget` bounds the number of equality goals searched per query;
    exceeding it signals pathological input, not inequality.  Name-free
    pairs are compared by canonical form and search no goal.
    """

    def __init__(self, sig: Signature, budget: int = 10_000):
        self.sig = sig
        self.budget = budget
        self._eq_true: set = set()
        self._eq_false: set = set()
        self._strip: dict = {}
        self._canon: dict = {}

    # -- unfolding ----------------------------------------------------------

    def unfold(self, t: SessionType) -> SessionType:
        """Replace a defined name by its body (identity on other heads)."""
        if isinstance(t, TypeName):
            return self.sig.type_body(t.name)
        return t

    def strip(self, t: SessionType) -> tuple[int, SessionType]:
        """Head-normalize to (delay count, base) with base neither a Next nor
        a defined name, unless the type is an infinite delay tower
        (`x = ()x`), in which case base is the looping name.  The result
        depends on the signature, so it is cached per node on this
        instance."""
        hit = self._strip.get(t)
        if hit is not None:
            return hit
        top, n = t, 0
        seen: set[str] = set()
        while True:
            if isinstance(t, Next):
                n += t.count
                t = t.inner
            elif isinstance(t, TypeName):
                if t.name in seen:
                    break
                seen.add(t.name)
                t = self.sig.type_body(t.name)
            else:
                break
        hit = self._strip[top] = (n, t)
        return hit

    def expose(self, t: SessionType) -> Optional[SessionType]:
        """The structural head usable right now: None if delayed (or an
        infinite delay tower)."""
        n, base = self._strip.get(t) or self.strip(t)
        if n > 0 or isinstance(base, TypeName):
            return None
        return base

    # -- equality -----------------------------------------------------------

    def type_equal(self, a: SessionType, b: SessionType) -> bool:
        """Equirecursive equality: by canonical form when neither side has
        a type name, otherwise by `_bisimilar`."""
        if a is b:
            return True
        canon = self._canon
        ca = canon.get(a)
        if ca is None:
            ca = self.canonical(a)
        if ca:
            cb = canon.get(b)
            if cb is None:
                cb = self.canonical(b)
            if cb:
                return ca is cb
        key = self._eq_key(a, b)
        if key in self._eq_true:
            return True
        if key in self._eq_false:
            return False
        return self._bisimilar(key)

    def canonical(self, t: SessionType):
        """The canonical form of a type with no type name and only literal
        delay counts: delay runs merged and `+{}`/`&{}` branches sorted by
        label.  Two such types are equal iff their canonical forms are the
        same node.  False for any other type.  Walked with an explicit
        stack and cached per node on this instance."""
        canon = self._canon
        stack = [t]
        while stack:
            u = stack[-1]
            if u in canon:
                stack.pop()
                continue
            cls = type(u)
            if cls is Plus or cls is With:
                parts = [v for _, v in u.branches]
            elif cls is Tensor:
                parts = (u.left, u.right)
            elif cls is Lolli:
                parts = (u.arg, u.cont)
            elif cls is Box or cls is Diamond or (
                    cls is Next and type(u.count) is int):
                parts = (u.inner,)
            elif cls is One:
                parts = ()
            else:
                # A type name, or a delay count that is not a literal.
                canon[stack.pop()] = False
                continue
            kids = list(map(canon.get, parts))
            if None in kids:
                stack += parts
                continue
            stack.pop()
            if not all(kids):
                canon[u] = False
            elif cls is Next:
                canon[u] = next_type(u.count, kids[0])
            elif cls is Plus or cls is With:
                labels = [lab for lab, _ in u.branches]
                canon[u] = cls(tuple(sorted(dict(zip(labels, kids)).items())))
            else:
                canon[u] = cls(*kids)
        return canon[t]

    def _bisimilar(self, key: tuple) -> bool:
        """Decide an equality goal found in neither memo, coinductively:
        a search depth first on an explicit stack of (goal, its remaining
        subgoals).

        Goals failing on this run are cached for good (assumptions can only
        add equalities, so a failure is unconditional).  Goals visited by a
        successful run form a bisimulation and are all cached as equal when
        the top-level query succeeds."""
        eq_true, eq_false, eq_key = self._eq_true, self._eq_false, self._eq_key
        budget, steps = self.budget, 0
        assumed: set = set()  # the goals on the current path
        visited: set = set()  # the goals that held under those assumptions
        stack: list = []
        while True:
            steps += 1
            if steps > budget:
                raise BudgetExceededError("type equality budget exceeded")
            assumed.add(key)
            subgoals = _subgoals(*key)
            if subgoals is None:
                break
            stack.append((key, iter(subgoals)))
            # Close the goals whose subgoals all hold, up to one that still
            # has a subgoal to open.
            while stack:
                for a, b in stack[-1][1]:
                    if a is b:
                        continue
                    key = eq_key(a, b)
                    if key not in eq_true and key not in assumed:
                        break
                else:
                    done = stack.pop()[0]
                    assumed.discard(done)
                    visited.add(done)
                    continue
                break
            else:
                eq_true |= visited
                return True
            if key in eq_false:
                break
        # A goal failed, and with it every goal on the path to it.
        eq_false.add(key)
        for done, _ in stack:
            eq_false.add(done)
        return False

    def _eq_key(self, a: SessionType, b: SessionType) -> tuple:
        """The memo key of an equality goal: both sides stripped, with their
        common leading delays removed."""
        na, ta = self._strip.get(a) or self.strip(a)
        nb, tb = self._strip.get(b) or self.strip(b)
        m = min(na, nb)
        return (na - m, ta, nb - m, tb)

    # -- one-step time shifts ------------------------------------------------

    def shift_left(self, t: SessionType) -> Optional[SessionType]:
        """[t] stepped back one unit on the left of a sequent; None when
        undefined (diamond or a basic constructor at the head)."""
        if isinstance(t, TypeName):
            t = self.unfold(t)
        match t:
            case Next(count, inner):
                return next_type(count - 1, inner)
            case Box():
                return t
            case _:
                return None

    def shift_right(self, t: SessionType) -> Optional[SessionType]:
        """Dual shift for the offered type: box is undefined, diamond passes."""
        if isinstance(t, TypeName):
            t = self.unfold(t)
        match t:
            case Next(count, inner):
                return next_type(count - 1, inner)
            case Diamond():
                return t
            case _:
                return None

    def shift_left_n(self, t: SessionType, n: int) -> Optional[SessionType]:
        """`shift_left` applied n times, in time independent of n."""
        return self._shift_n(t, n, Box)

    def shift_right_n(self, t: SessionType, n: int) -> Optional[SessionType]:
        """`shift_right` applied n times, in time independent of n."""
        return self._shift_n(t, n, Diamond)

    def _shift_n(self, t: SessionType, n: int, keeps) -> Optional[SessionType]:
        """n one-step shifts at once, with the result structurally equal to
        the step-by-step loop's: a normalized `Next` gives up its whole count,
        a `keeps` head absorbs the remaining steps, and on reaching a defined
        name again (an infinite delay tower such as `x = ()x`) n is reduced
        modulo the tower's period."""
        seen: Optional[dict[TypeName, int]] = None
        while n > 0:
            if isinstance(t, TypeName):
                if seen is None:
                    seen = {}
                elif t in seen:
                    n %= seen[t] - n
                    seen.clear()
                    continue
                seen[t] = n
                t = self.unfold(t)
            if isinstance(t, Next):
                count, inner = t.count, t.inner
                if isinstance(inner, Next):
                    # Not normalized: one step merges a level, as the loop's.
                    t = next_type(count - 1, inner)
                    n -= 1
                elif count > n:
                    return Next(count - n, inner)
                else:
                    n -= count
                    t = inner
            elif isinstance(t, keeps):
                return t
            else:
                return None
        return t

    # -- patience ------------------------------------------------------------

    def patient(self, t: SessionType, side: str) -> bool:
        """side='box': t is ()^n [] _ (tolerates waiting as an antecedent);
        side='diamond': t is ()^n <> _ (tolerates waiting as the offer)."""
        assert side in ("box", "diamond")
        _, base = self._strip.get(t) or self.strip(t)
        if side == "box":
            return isinstance(base, Box)
        return isinstance(base, Diamond)


def _subgoals(na: int, ta: SessionType, nb: int, tb: SessionType):
    """The goals on which the equality of two stripped states rests, in
    the order they are taken; None when the states differ at the head."""
    la, lb = isinstance(ta, TypeName), isinstance(tb, TypeName)
    if la or lb:
        # Two infinite delay towers never communicate: equal.  One alone
        # loops on delays while the other reaches an action.
        return () if la and lb else None
    if na != nb or type(ta) is not type(tb):
        return None
    match ta:
        case One():
            return ()
        case Plus(bs) | With(bs):
            d1, d2 = dict(bs), dict(tb.branches)
            if d1.keys() != d2.keys():
                return None
            return [(u, d2[lab]) for lab, u in d1.items()]
        case Tensor(a1, b1):
            return (a1, tb.left), (b1, tb.right)
        case Lolli(a1, b1):
            return (a1, tb.arg), (b1, tb.cont)
        case Box(i1) | Diamond(i1):
            return ((i1, tb.inner),)
    return None

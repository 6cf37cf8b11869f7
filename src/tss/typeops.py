"""Semantic operations on ground session types: contractiveness,
equirecursive unfolding and equality, one-step time shifts, patience.

Equality is coinductive: a bisimulation over head-normalized states
(leading-delay count, base type), memoizing visited state pairs.  Revisiting
a pair means the infinite unfoldings agree, so it counts as success.
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

    A `budget` bounds the number of equality goals examined per query;
    exceeding it signals pathological input, not inequality.
    """

    def __init__(self, sig: Signature, budget: int = 10_000):
        self.sig = sig
        self.budget = budget
        self._eq_true: set = set()
        self._eq_false: set = set()
        self._strip: dict = {}

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
        """Coinductive equirecursive equality.

        Goals failing on this run are cached for good (assumptions can only
        add equalities, so a failure is unconditional).  Goals visited by a
        successful run form a bisimulation and are all cached as equal when
        the top-level query succeeds."""
        if a is b:
            return True
        key = self._eq_key(a, b)
        if key in self._eq_true:
            return True
        if key in self._eq_false:
            return False
        search = _Bisimulation(self)
        result = search.settle(key)
        if result:
            self._eq_true |= search.candidates
        return result

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


class _Bisimulation:
    """The state of one `TypeOps.type_equal` query: the goals assumed on
    the current path and those visited by it.  (An object rather than
    nested closures: closures that call each other form a reference cycle,
    which only the cycle collector frees.)"""

    __slots__ = ("ops", "steps", "assumed", "candidates")

    def __init__(self, ops: TypeOps):
        self.ops = ops
        self.steps = 0
        self.assumed: set = set()
        self.candidates: set = set()

    def states_eq(self, na: int, ta: SessionType, nb: int,
                  tb: SessionType) -> bool:
        self.steps += 1
        if self.steps > self.ops.budget:
            raise BudgetExceededError("type equality budget exceeded")
        la, lb = isinstance(ta, TypeName), isinstance(tb, TypeName)
        if la and lb:
            # Two infinite delay towers never communicate: equal.
            return True
        if la or lb:
            # One side loops on delays, the other reaches an action.
            return False
        if na != nb:
            return False
        if type(ta) is not type(tb):
            return False
        eq = self.eq
        match ta, tb:
            case One(), One():
                return True
            case (Plus(bs1), Plus(bs2)) | (With(bs1), With(bs2)):
                d1, d2 = dict(bs1), dict(bs2)
                if set(d1) != set(d2):
                    return False
                return all(eq(d1[lab], d2[lab]) for lab in d1)
            case (Tensor(a1, b1), Tensor(a2, b2)) | (Lolli(a1, b1), Lolli(a2, b2)):
                return eq(a1, a2) and eq(b1, b2)
            case (Box(i1), Box(i2)) | (Diamond(i1), Diamond(i2)):
                return eq(i1, i2)
        return False

    def eq(self, a: SessionType, b: SessionType) -> bool:
        if a is b:
            return True
        ops = self.ops
        key = ops._eq_key(a, b)
        if key in ops._eq_true or key in self.assumed:
            return True
        if key in ops._eq_false:
            return False
        return self.settle(key)

    def settle(self, key: tuple) -> bool:
        """Decide a goal found in neither memo nor the assumptions."""
        self.assumed.add(key)
        ok = self.states_eq(*key)
        self.assumed.discard(key)
        if ok:
            self.candidates.add(key)
        else:
            self.ops._eq_false.add(key)
        return ok

"""The acceptance suite: one callable per criterion, each returning
(passed, detail).  The CLI `corpus` command and tests/test_acceptance.py
both drive these."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import corpus
from .ast import ONE, Box, Diamond, SessionType, Signature, next_type
from .printer import pretty_print
from .reconstruct import FwdElaborator, erase_reconstructed
from .runtime import Trace, is_poised
from .subtyping import is_subtype, is_weak_subtype, subtype_oracle
from .typeops import TypeOps


# ---------------------------------------------------------------------------
# Shared fixtures

def modal_universe(depth: int = 4) -> list[SessionType]:
    """All distinct stacks of (), ()^2, [] and <> of the given depth over
    the single basic type 1."""
    seen: set = set()
    out: list[SessionType] = []
    # Depth first, a stack before its extensions, which come in the order
    # (), ()^2, [], <>: pushed in reverse, they pop in that order.
    todo: list[list] = [[]]
    while todo:
        stack = todo.pop()
        t: SessionType = ONE
        for c in reversed(stack):
            if c == "B":
                t = Box(t)
            elif c == "D":
                t = Diamond(t)
            else:
                t = next_type(c, t)
        if t not in seen:
            seen.add(t)
            out.append(t)
        if len(stack) < depth:
            todo.extend(stack + [c] for c in ("D", "B", 2, 1))
    return out


class _Universe:
    """Lazily computed subtype matrix over the modal universe, shared by
    the criteria that quantify over it."""

    _instance = None

    def __init__(self):
        self.ops = TypeOps(Signature())
        self.types = modal_universe()
        memo: dict = {}
        self.sub = {(a, b): is_subtype(self.ops, a, b, memo=memo)
                    for a in self.types for b in self.types}

    @classmethod
    def get(cls) -> "_Universe":
        if cls._instance is None:
            cls._instance = _Universe()
        return cls._instance


def expected_schedule(ops: TypeOps, t: SessionType, start: int = 0,
                      limit: int = 64) -> list[tuple[str, int]]:
    """Walk a ground offered type and read off when each message must
    appear: the independent oracle for run timestamps.  Branching types
    must be single-choice along the walked spine (the corpus producers
    are), so the schedule is determined by the type alone."""
    from .ast import Plus, Tensor

    out: list[tuple[str, int]] = []
    now = start
    while len(out) < limit:
        n, base = ops.strip(t)
        now += n
        if base == ONE:
            out.append(("close", now))
            return out
        if isinstance(base, Diamond):
            out.append(("now", now))
            t = base.inner
        elif isinstance(base, Plus) and len(base.branches) == 1:
            (lab, cont), = base.branches
            out.append((f"label:{lab}", now))
            t = cont
        elif isinstance(base, Tensor):
            out.append(("chan", now))
            t = base.right
        else:
            return out
    return out


# ---------------------------------------------------------------------------
# Criteria

def criterion_1():
    """six under r: five chain messages at 0..4 carrying b0,b1,b1,$,close."""
    _, status, chain = corpus.load("six_r.tss", "six", {}, "r").run()
    want = [("label", "b0", 0), ("label", "b1", 1), ("label", "b1", 2),
            ("label", "$", 3), ("close", "", 4)]
    ok = status == "quiescent" and chain == want
    return ok, f"chain={chain}"


def criterion_2():
    """Golden typechecking verdicts for the bit-stream and counter corpus."""
    results = []
    for file, root, expect in [
        ("copy_r.tss", "copy", "ok"),
        ("plus1_bad_r.tss", "plus1", "recon_error"),
        ("plus_r.tss", "plus1", "ok"),
        ("plus_r.tss", "plus2", "ok"),
        ("compress_r.tss", "compress", "ok"),
        ("compress_r.tss", "skip1s", "ok"),
        ("counter_r.tss", "bit0", "ok"),
        ("counter_r.tss", "bit1", "ok"),
        ("counter_r.tss", "empty", "ok"),
    ]:
        verdict = corpus.load(file, root, {}, "r").verdict
        results.append((file, root, expect, verdict))
    bad = [r for r in results if r[2] != r[3]]
    return not bad, f"{len(results) - len(bad)}/{len(results)} verdicts match" + \
        (f"; wrong: {bad}" if bad else "")


def criterion_3():
    """Stack hand-off done at 2n+2, queue at 4n+2, for n in 1..3."""
    details = []
    ok = True
    for main_name, file, slope in (("smain", "stack_rs.tss", 2),
                                   ("qmain", "queue_rs.tss", 4)):
        for n in (1, 2, 3):
            _, status, chain = corpus.load(file, main_name, {"n": n},
                                           "rs").run()
            good = (status == "quiescent" and len(chain) == 2
                    and chain[0][0] == "chan" and chain[0][2] == slope * n
                    and chain[1] == ("close", "", slope * n + 1))
            ok &= good
            details.append(f"{main_name}[{n}]: last message at "
                           f"{chain[-1][2] if chain else '?'}, "
                           f"handed over at {slope * n + 2}")
    return ok, "; ".join(details[:4]) + " ..."


def criterion_4():
    """Append typechecks and emits on the type's schedule for the whole
    (n, k, r) grid."""
    checked = 0
    for n in range(4):
        for k in range(4):
            for r in range(3):
                bind = {"n": n, "k": k, "r": r}
                prog = corpus.load("append_rs.tss", "amain", bind, "rs")
                if prog.verdict != "ok":
                    return False, f"typecheck failed at {bind}"
                _, status, chain = prog.run()
                want = expected_schedule(
                    prog.ops, prog.elab.decl(prog.main).offer_type)
                got = [(("label:" + m[1]) if m[0] == "label" else m[0], m[2])
                       for m in chain]
                if status != "quiescent" or got != want:
                    return False, f"schedule mismatch at {bind}: {got} vs {want}"
                checked += 1
    return True, f"{checked} instantiations timed exactly as typed"


def criterion_5():
    """Alternate: k = 0 specialization and k in {1, 2}; first six outputs
    at the rate the output type prescribes."""
    for k in (0, 1, 2):
        prog = corpus.load("alternate_rs.tss", "altmain", {"k": k}, "rs")
        if prog.verdict != "ok":
            return False, f"typecheck failed at k={k}"
        _, _, chain = prog.run(steps=400)
        times = [t for kind, _, t in chain if kind == "chan"][:6]
        want = [1 + i * (k + 2) for i in range(6)]
        if times != want:
            return False, f"k={k}: outputs at {times}, typed schedule {want}"
    return True, "output rate k+1 observed for k in 0..2"


def criterion_6():
    """Tree parity: answer at 5h+3 under rs for h in 0..4; the xor-only
    model answers at h (checked by typechecking and running tree_free)."""
    for h in range(5):
        _, status, chain = corpus.load("tree_rs.tss", "tmain", {"h": h},
                                       "rs").run()
        if status != "quiescent" or not chain or chain[0][2] != 5 * h + 3:
            return False, f"rs model, h={h}: {chain}"
    for h in range(5):
        prog = corpus.load("tree_free.tss", "tmain", {"h": h}, "free")
        if prog.verdict != "ok":
            return False, f"xor-only model fails to typecheck at h={h}"
        _, status, chain = prog.run()
        if status != "quiescent" or not chain or chain[0][2] != h:
            return False, f"xor-only model, h={h}: {chain}"
    return True, "boolean at 5h+3 (rs) and h (xor-only) for h in 0..4"


def criterion_7():
    """Fold at the stated bound (k+5)n+4.  One accumulator round trip
    costs k+6 units (six charged actions plus the combine latency), so the
    stated bound is unattainable for n >= 1; see "Criterion 7: the fold
    bound" in README.md."""
    rows = []
    ok = True
    for n in range(4):
        for k in (0, 2):
            bind = {"n": n, "k": k}
            want = (k + 5) * n + 4
            prog = corpus.load("fold_paper_rs.tss", "fmain", bind, "rs")
            if prog.verdict == "recon_error":
                rows.append(f"n={n},k={k}: no elaboration at ()^{want}")
                ok = False
                continue
            _, status, chain = prog.run()
            got = chain[0][2] if chain else None
            # The result type is ()^{(k+5)n+4} B with B = ()bb: the label
            # message lands one unit after the declared bound.
            if status == "quiescent" and got == want + 1:
                rows.append(f"n={n},k={k}: at {want}")
            else:
                ok = False
                rows.append(f"n={n},k={k}: result not at {want}")
    return ok, "; ".join(rows)


def criterion_8():
    """Subtyping identity: is_subtype(A,B) iff implicit forwarding from A
    to B elaborates, over the whole modal universe."""
    u = _Universe.get()
    fe = FwdElaborator(u.ops)
    mismatches = sum(fe.check(a, b) != u.sub[(a, b)]
                     for a in u.types for b in u.types)
    return mismatches == 0, (f"{len(u.types)} types, "
                             f"{len(u.types) ** 2} ordered pairs, "
                             f"{mismatches} mismatches")


def criterion_9():
    """Reflexivity, transitivity, and the patience/impatience lemmas over
    the modal universe; weak subtyping is contained in subtyping."""
    u = _Universe.get()
    types, sub, ops = u.types, u.sub, u.ops
    if not all(sub[(a, a)] for a in types):
        return False, "reflexivity fails"
    idx = {t: i for i, t in enumerate(types)}
    rows = [0] * len(types)
    for (a, b), v in sub.items():
        if v:
            rows[idx[a]] |= 1 << idx[b]
    for i in range(len(types)):
        r, j = rows[i], 0
        rr = r
        while rr:
            if rr & 1 and rows[j] & ~r:
                return False, f"transitivity fails at {types[i]}"
            rr >>= 1
            j += 1
    shapes = {t: ops.strip(t) for t in types}
    for a in types:
        for b in types:
            if not sub[(a, b)]:
                continue
            # a <= ()^n [] _  forces a = ()^k [] _ ; dually for <>.
            if isinstance(shapes[b][1], Box) and not isinstance(shapes[a][1], Box):
                return False, f"patience (i) fails: {a} <= {b}"
            if isinstance(shapes[a][1], Diamond) and not isinstance(shapes[b][1], Diamond):
                return False, f"patience (ii) fails: {a} <= {b}"
    # Impatience: a delayed box on the left may shed a leading delay.
    for a in types:
        na, ta = shapes[a]
        for b in types:
            if isinstance(ta, Box) and na >= 1 and sub[(a, b)]:
                if not is_subtype(ops, next_type(na - 1, ta), b):
                    return False, f"impatience (i) fails: {a} <= {b}"
            nb, tb = shapes[b]
            if isinstance(tb, Diamond) and nb >= 1 and sub[(a, b)]:
                if not is_subtype(ops, a, next_type(nb - 1, tb)):
                    return False, f"impatience (ii) fails: {a} <= {b}"
    weak_not_sub = sum(is_weak_subtype(ops, a, b) and not sub[(a, b)]
                       for a in types for b in types)
    if weak_not_sub:
        return False, f"{weak_not_sub} weak-subtype pairs escape subtyping"
    return True, f"all laws hold over {len(types)} types"


def criterion_10():
    """Preservation: the configuration typechecks after every step, for
    every corpus run under all three schedulers."""
    steps_checked = 0
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        for sched in ("rr", "rand", "sync"):
            trace = Trace()
            prog.run(sched, 1, spec.steps, trace=trace, check=True)
            steps_checked += trace.count
    return True, f"{steps_checked} configurations checked, zero violations"


def criterion_11():
    """Progress: no run gets stuck non-poised; quiescence implies poised.
    Observables agree across schedulers for terminating programs."""
    for spec in corpus.run_specs():
        prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
        outcomes = []
        for sched, seed in (("rr", 0), ("rand", 1), ("rand", 99), ("sync", 0)):
            final, status, chain = prog.run(sched, seed, spec.steps)
            if status == "quiescent":
                if not is_poised(final):
                    return False, (f"{spec.file}/{prog.main}: quiescent but "
                                   f"not poised")
                # Fresh channel names depend on allocation order; the
                # observation is the role, label, and timestamp only.
                outcomes.append([(k, lab if k == "label" else "", t)
                                 for k, lab, t in chain])
        if outcomes and any(o != outcomes[0] for o in outcomes):
            return False, (f"{spec.file}/{prog.main}: observables differ by "
                           f"scheduler")
    return True, "no stuck states; observables scheduler-independent"


def criterion_12():
    """Reconstruction round-trip: elaborate, explicit-check, and erasing
    the inserted nodes reproduces the instrumented source byte-exactly."""
    programs = 0
    for spec in corpus.check_specs():
        if spec.expect != "ok":
            continue
        prog = corpus.load(spec.file, spec.root, spec.bind, spec.cost)
        if prog.errors:
            return False, f"{spec.file}: {prog.verdict}: {prog.errors[0]}"
        elab = prog.elab
        erased = Signature(dict(elab.typedefs), dict(elab.procdecls), {})
        for name, pdef in elab.procdefs.items():
            cl = pdef.clauses[0]
            erased.procdefs[name] = type(pdef)(
                name, [type(cl)(cl.patterns, cl.dest, cl.chans,
                                erase_reconstructed(cl.body))])
        if pretty_print(erased) != pretty_print(prog.ticked):
            return False, f"{spec.file}: erasure does not reproduce the source"
        programs += 1
    return True, f"{programs} program instantiations round-trip byte-exactly"


def criterion_13():
    """The backtracking subtype procedure agrees with the exhaustive-search
    oracle over the modal universe."""
    u = _Universe.get()
    memo: dict = {}
    mismatches = sum(subtype_oracle(u.ops, a, b, memo=memo) != u.sub[(a, b)]
                     for a in u.types for b in u.types)
    return mismatches == 0, (f"{len(u.types) ** 2} pairs compared against "
                             f"the oracle, {mismatches} mismatches")


@dataclass
class Criterion:
    number: int
    title: str
    fn: Callable[[], tuple[bool, str]]
    # A strict expected failure: failing is the analyzed outcome, passing
    # is a regression.
    xfail: bool = False


CRITERIA = [
    Criterion(1, "six-trace exactness", criterion_1),
    Criterion(2, "golden typechecking verdicts", criterion_2),
    Criterion(3, "stack vs queue response 2n+2 / 4n+2", criterion_3),
    Criterion(4, "append grid timing", criterion_4),
    Criterion(5, "alternate rates", criterion_5),
    Criterion(6, "tree span 5h+3 and xor-only h", criterion_6),
    Criterion(7, "fold at (k+5)n+4", criterion_7, xfail=True),
    Criterion(8, "subtyping identity over the universe", criterion_8),
    Criterion(9, "subtyping laws (refl/trans/patience)", criterion_9),
    Criterion(10, "preservation at every step", criterion_10),
    Criterion(11, "progress and scheduler independence", criterion_11),
    Criterion(12, "reconstruction round-trip", criterion_12),
    Criterion(13, "subtype procedure vs oracle", criterion_13),
]


def select(filter_text: str = "") -> list[Criterion]:
    """The criteria whose number and title contain `filter_text`."""
    return [c for c in CRITERIA if filter_text in f"{c.number} {c.title}"]


def run_all(filter_text: str = "", out=print) -> bool:
    """Run the selected criteria, one line each; False if one fails or an
    expected failure passes."""
    all_ok = True
    selected = select(filter_text)
    if any(c.number in (8, 9, 13) for c in selected):
        _Universe.get()  # shared fixture; build outside the timings
    for c in selected:
        t0 = time.time()
        try:
            ok, detail = c.fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"error: {e}"
        if c.xfail:
            mark = "XPASS" if ok else "xfail"
            ok = not ok
        else:
            mark = "pass" if ok else "FAIL"
        all_ok &= ok
        out(f"[{mark}] {c.number:2d} {c.title} ({time.time() - t0:.1f}s): {detail}")
    return all_ok

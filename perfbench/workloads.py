"""The four benchmark workloads and the references their outputs are
checked against.

Each workload is built once per process (its set-up) and then runs in
rounds; a round is a fixed list of items, the same in every round, each
reported to the recorder with its time, its work, the counts that must
repeat exactly, and an error message when its output is wrong.

The references do not come from the code under test:
- run timestamps come from closed forms derived from the programs' declared
  types (`expected_chain`);
- compile verdicts come from the corpus manifest (a hand-written data file),
  or are `ok` for the scaled families and `recon_error` for the rejections;
- subtype verdicts come from a frozen matrix (`universe_ref.json`, see
  `make_universe_ref.py`) with 24,483 true pairs out of 61,009, and the three
  procedures must also agree with each other.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, fields, is_dataclass
from importlib import import_module
from pathlib import Path

from tss.ast import ONE, Box, Delay, Diamond, Origin, Signature, next_type

# By module, not by name: the tss package re-exports `instantiate` the
# function under the module's name.
(acceptance, checker, cost, instantiate, parser, printer, reconstruct, runtime,
 subtyping, typeops) = (import_module(f"tss.{m}") for m in (
    "acceptance", "checker", "cost", "instantiate", "parser", "printer",
    "reconstruct", "runtime", "subtyping", "typeops"))

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "src" / "tss" / "corpus"
STEP_BUDGET = 100_000
SCHEDULERS = ("rr", "rand", "sync")
POW2 = (0, 1, 2, 4, 8, 16, 32, 64)
UNIVERSE_TYPES = 247
UNIVERSE_TRUE_PAIRS = 24_483
UNIVERSE_BATCH = 1024
UNIVERSE_BATCHES = 8

_now = time.perf_counter


# ---------------------------------------------------------------------------
# References

def expected_chain(file: str, bind: dict[str, int]) -> list[tuple[str, int]]:
    """The messages on the root channel and their timestamps, from the
    closed forms of the declared types:
    - queue_rs qmain[n] sends the queue at 4n and closes at 4n+1;
    - tree_rs tmain[h] answers the parity of 2^h ones (b1 for h = 0, else
      b0) at 5h+3 and closes one unit later;
    - fold_rs fmain[n,k] delivers b0 (combine passes the initial b0
      through) at (k+6)n+5 and closes one unit later."""
    if file == "queue_rs.tss":
        t = 4 * bind["n"]
        return [("chan", t), ("close", t + 1)]
    if file == "tree_rs.tss":
        h = bind["h"]
        return [("label:b1" if h == 0 else "label:b0", 5 * h + 3),
                ("close", 5 * h + 4)]
    if file == "fold_rs.tss":
        t = (bind["k"] + 6) * bind["n"] + 5
        return [("label:b0", t), ("close", t + 1)]
    raise ValueError(f"no closed form for {file}")


def run_error(file: str, bind: dict[str, int], status: str, poised: bool,
              chain) -> str | None:
    """Why a finished run is wrong, or None.  `chain` holds the
    (kind, payload, time) triples of `root_chain`."""
    if status != "quiescent":
        return f"run ended on {status}"
    if not poised:
        return "quiescent but not poised"
    got = [(f"label:{p}" if k == "label" else k, t) for k, p, t in chain]
    want = expected_chain(file, bind)
    if got != want:
        return f"root chain {got}, closed form {want}"
    return None


def verdict_error(want: str, got: str) -> str | None:
    return None if got == want else f"verdict {got}, expected {want}"


def pair_error(ref: bool, sub: bool, fwd: bool, oracle: bool) -> str | None:
    """The three procedures must agree with each other and the reference."""
    if sub == fwd == oracle == ref:
        return None
    return (f"is_subtype={sub} FwdElaborator={fwd} oracle={oracle} "
            f"reference={ref}")


# A failure whose cause is a named, recorded defect of tss at the commit
# that defined this benchmark.  It still counts as failed; it only does not
# make the run incorrect.
KNOWN_DEFECTS = {
    ("RecursionError", "reconstruct"):
        "reconstruction recurses once per delay unit and overflows the "
        "Python stack on large delay exponents (e.g. append_rs amain "
        "n=64,k=64,r=4, exponent 514)",
}


def bind_text(bind: dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in bind.items())


def count_ticks(sig: Signature) -> int:
    """Delays the cost model inserted, over every definition body."""
    todo = [cl.body for pd in sig.procdefs.values() for cl in pd.clauses]
    n = 0
    while todo:
        node = todo.pop()
        if isinstance(node, Delay) and node.origin is Origin.TICK:
            n += 1
        if isinstance(node, tuple):
            todo.extend(node)
        elif is_dataclass(node):
            todo.extend(getattr(node, f.name) for f in fields(node))
    return n


class Clock:
    """Times one item as `timeit` does: the garbage collector is off while
    the clock runs, so a collection that earlier items made due does not
    land in this one.  (tss builds no reference cycles: a full collection
    after any item finds no garbage.)"""

    seconds = 0.0

    def __enter__(self):
        gc.disable()
        self._t0 = _now()
        return self

    def __exit__(self, *exc):
        self.seconds = _now() - self._t0
        gc.enable()
        return False


# ---------------------------------------------------------------------------
# Run workloads: run-scaled and preserve

class _MeteredScheduler:
    """Wraps a scheduler to count and time the steps of a run without an
    on_step callback (which would force a configuration per step).  A
    step's time runs from one pick to the next: pick, rule application, the
    check (if any) and finding the next enabled rules.  Step times are also
    summed by the size of the configuration the step started from."""

    def __init__(self, inner, small: int, large: int):
        self.inner = inner
        self.small, self.large = small, large
        self.steps = 0
        self.step_times: list[float] = []
        self.by_size = {"small": [0.0, 0], "large": [0.0, 0]}
        self._size = None
        self._t0 = 0.0

    def pick(self, config, candidates):
        now = _now()
        if self._size is not None:
            dt = now - self._t0
            self.step_times.append(dt)
            group = "small" if self._size < self.small else \
                "large" if self._size >= self.large else None
            if group:
                self.by_size[group][0] += dt
                self.by_size[group][1] += 1
        rule = self.inner.pick(config, candidates)
        self._size = None
        if rule is not None:
            self.steps += 1
            self._size = len(config.objs)
            self._t0 = now
        return rule


@dataclass
class _Instance:
    file: str
    bind: dict[str, int]
    elab: Signature
    main: str


def _runs(file, main, binds, scheds=SCHEDULERS):
    """Round items: each binding of one program under each scheduler."""
    return [(file, main, bind, sched) for bind in binds for sched in scheds]


class RunWorkload:
    """Elaborated corpus instances run to quiescence, each item one
    (instance, scheduler) run.  With `check`, the configuration is
    typechecked after every step as `tss run --check-config` does.
    `cost_growth` compares the time of steps taken from configurations of
    at least `large` objects with that of steps from fewer than `small`."""

    exact_fields = ("steps", "final_clock", "root_chain")

    def __init__(self, seed: int, items, check: bool, small: int,
                 large: int):
        self.seed, self.check = seed, check
        self.small, self.large = small, large
        sources: dict[str, str] = {}
        instances: dict[tuple[str, str], _Instance] = {}
        self.items = []
        for file, main, bind, sched in items:
            inst = instances.get((file, bind_text(bind)))
            if inst is None:
                # The front end as `tss run` drives it.
                src = sources.setdefault(file, (CORPUS / file).read_text())
                sig = parser.parse_program(src)
                ground = instantiate.instantiate_many(sig, [main], bind)
                typeops.check_contractive(ground)
                elab, errors = reconstruct.elaborate_signature(
                    cost.instrument(ground, "rs"))
                if errors:
                    raise RuntimeError(f"{file} {main} {bind} does not "
                                       f"elaborate: {errors[0]}")
                inst = instances[(file, bind_text(bind))] = _Instance(
                    file, bind, elab, instantiate.mangled_name(sig, main, bind))
            self.items.append((inst, sched))

    def round(self, rec, tr) -> None:
        for inst, sched in self.items:
            with tr.op():
                self._item(inst, sched, rec, tr)

    def _item(self, inst: _Instance, sched_name: str, rec, tr) -> None:
        key = f"{inst.file[:-4]} {inst.main} {sched_name}"
        ops = typeops.TypeOps(inst.elab)
        eng = runtime.Engine(inst.elab, ops)
        cfg = runtime.init_config(inst.elab, inst.main)
        root = cfg.order[0]
        sched = _MeteredScheduler(runtime.make_scheduler(sched_name, self.seed),
                                  self.small, self.large)
        on_step = None
        clock = Clock()
        try:
            with clock:
                if self.check:
                    declared = {root: cfg.ptypes[root]}
                    cache: dict = {}
                    check_configuration = runtime.check_configuration

                    def on_step(c):
                        before = len(cache)
                        check_configuration(ops, {}, c, declared, cache)
                        tr.count("runtime.cfg_objs_examined", len(c.objs))
                        tr.count("runtime.cfg_cache_misses",
                                 len(cache) - before)

                    on_step(cfg)
                final, status = eng.run(cfg, sched, STEP_BUDGET,
                                        on_step=on_step)
        except Exception as e:  # a crash is a failed item, not an abort
            rec.item(key, clock.seconds, sched.steps, error=e)
            return
        chain = runtime.root_chain(final, root)
        final_clock = max((o.time for o in final.objs.values()), default=0)
        tr.count("runtime.final_clock", final_clock)
        err = run_error(inst.file, inst.bind, status,
                        runtime.is_poised(final), chain)
        rec.item(key, clock.seconds, sched.steps, growth=sched.by_size,
                 latencies=sched.step_times,
                 exact=(sched.steps, final_clock, tuple(chain)), error=err)


def run_scaled(seed: int) -> RunWorkload:
    # The two largest instances run under rr only, so that a run has
    # several rounds.
    items = _runs("queue_rs.tss", "qmain", [{"n": n} for n in (1, 2, 4, 8, 16)])
    items += _runs("queue_rs.tss", "qmain", [{"n": 32}], ("rr",))
    items += _runs("tree_rs.tss", "tmain", [{"h": h} for h in range(6)])
    items += _runs("tree_rs.tss", "tmain", [{"h": 6}], ("rr",))
    items += _runs("fold_rs.tss", "fmain", [{"n": n, "k": k}
                                            for n in (0, 1, 2, 4, 8, 16)
                                            for k in range(4)])
    return RunWorkload(seed, items, check=False, small=16, large=64)


def preserve(seed: int) -> RunWorkload:
    items = _runs("queue_rs.tss", "qmain", [{"n": n} for n in (1, 2, 4, 8)])
    items += _runs("tree_rs.tss", "tmain", [{"h": h} for h in range(4)])
    items += _runs("fold_rs.tss", "fmain", [{"n": n, "k": k}
                                            for n in (0, 1, 2, 4)
                                            for k in range(3)])
    return RunWorkload(seed, items, check=True, small=8, large=24)


# ---------------------------------------------------------------------------
# compile

@dataclass
class _Program:
    stratum: str
    file: str
    model: str
    root: str
    bind: dict[str, int]
    expect: str

    @property
    def key(self) -> str:
        return f"{self.stratum}:{self.file[:-4]} {self.root} {bind_text(self.bind)}"


def compile_draw(seed: int, manifest: dict) -> list[_Program]:
    """One program per stratum; the seed draws the free index of the
    append_rs and fold_rs strata and the order.  Strata: every manifest
    spec, append_rs per (n, r), fold_rs per n, tree_rs and tree_free per h,
    stack_rs and queue_rs per n, and fold_paper_rs per (n >= 1, k in {0, 2})
    as rejections."""
    rng = random.Random(seed)
    out = []
    for prog in manifest["programs"]:
        for r in prog["runs"]:
            out.append(_Program("manifest", prog["file"], prog["cost"],
                                r["main"], dict(r["bind"]), "ok"))
        for c in prog["checks"]:
            out.append(_Program("manifest", prog["file"], prog["cost"],
                                c["root"], dict(c["bind"]), c["expect"]))
    for n in POW2:
        for r in range(5):
            out.append(_Program("append", "append_rs.tss", "rs", "amain",
                                {"n": n, "k": rng.choice(POW2), "r": r}, "ok"))
    for n in POW2 + (128,):
        out.append(_Program("fold", "fold_rs.tss", "rs", "fmain",
                            {"n": n, "k": rng.randrange(4)}, "ok"))
    for h in range(11):
        out.append(_Program("tree", "tree_rs.tss", "rs", "tmain", {"h": h}, "ok"))
        out.append(_Program("tree", "tree_free.tss", "free", "tmain", {"h": h},
                            "ok"))
    for n in POW2 + (128,):
        out.append(_Program("stack", "stack_rs.tss", "rs", "smain", {"n": n},
                            "ok"))
        out.append(_Program("queue", "queue_rs.tss", "rs", "qmain", {"n": n},
                            "ok"))
    for n in POW2[1:]:
        for k in (0, 2):
            out.append(_Program("reject", "fold_paper_rs.tss", "rs", "fmain",
                                {"n": n, "k": k}, "recon_error"))
    rng.shuffle(out)
    return out


class CompileWorkload:
    """Programs taken from source to a verdict: parse, instantiate,
    instrument, reconstruct, explicit check, print."""

    exact_fields = ("verdict", "ticks", "defs", "printed_bytes")

    def __init__(self, seed: int):
        manifest = json.loads((CORPUS / "manifest.json").read_text())
        self.programs = compile_draw(seed, manifest)
        self.sources = {p.file: (CORPUS / p.file).read_text()
                        for p in self.programs}

    @staticmethod
    def _growth_group(p: _Program, defs: int) -> str | None:
        """Small and large programs among the strata the seed does not
        draw (stack_rs, queue_rs, tree_rs, tree_free), by ground
        definitions."""
        if p.stratum in ("stack", "queue", "tree"):
            return "small" if defs <= 16 else "large" if defs >= 64 else None
        return None

    def round(self, rec, tr) -> None:
        for p in self.programs:
            with tr.op():
                self._item(p, rec, tr)

    def _item(self, p: _Program, rec, tr) -> None:
        src = self.sources[p.file]
        ground = ticked = None
        text = ""
        stage = "parse"
        clock = Clock()
        try:
            with clock:
                sig = parser.parse_program(src)
                stage = "instantiate"
                ground = instantiate.instantiate_many(sig, [p.root], p.bind)
                typeops.check_contractive(ground)
                stage = "instrument"
                ticked = cost.instrument(ground, p.model)
                stage = "reconstruct"
                elab, errors = reconstruct.elaborate_signature(ticked)
                if errors:
                    verdict = "recon_error"
                else:
                    stage = "check"
                    errs = checker.check_signature(elab, call_subtyping=True)
                    verdict = "type_error" if errs else "ok"
                    stage = "print"
                    text = printer.pretty_print(elab)
        except Exception as e:  # a crash is a failed item, not an abort
            rec.item(p.key, clock.seconds, 1, error=e, stage=stage)
            return
        dt = clock.seconds
        defs = len(ground.procdefs)
        ticks = count_ticks(ticked)
        tr.count("parser.bytes", len(src))
        tr.count("instantiate.defs_out", defs)
        tr.count("cost.ticks_inserted", ticks)
        tr.count("reconstruct.printed_bytes", len(text))
        tr.count("reconstruct.rejections", verdict == "recon_error")
        group = self._growth_group(p, defs)
        rec.item(p.key, dt, 1, growth={group: (dt, defs)} if group else None,
                 exact=(verdict, ticks, defs, len(text)),
                 error=verdict_error(p.expect, verdict))


# ---------------------------------------------------------------------------
# universe

def universe_by_stack(depth: int = 4) -> dict:
    """Each distinct type of the modal universe keyed by its shortest
    constructor stack, outermost first: '1' = (), '2' = ()^2, 'B' = [],
    'D' = <>, over the basic type 1 (key '' is 1 itself).  Built
    breadth-first, so a key's length is the type's depth."""
    out: dict = {}
    level = [""]
    for _ in range(depth + 1):
        nxt = []
        for stack in level:
            t = ONE
            for c in reversed(stack):
                t = Box(t) if c == "B" else Diamond(t) if c == "D" \
                    else next_type(int(c), t)
            if t not in out:
                out[t] = stack
            nxt.extend(stack + c for c in "12BD")
        level = nxt
    return out


def load_universe_ref() -> tuple[list[str], list[int]]:
    """(keys, rows): rows[i] has bit j set iff keys[i] <= keys[j]."""
    ref = json.loads((HERE / "universe_ref.json").read_text())
    return ref["keys"], [int(r, 16) for r in ref["rows"]]


class UniverseWorkload:
    """Ordered pairs of the depth-4 modal universe, each decided by
    is_subtype, FwdElaborator.check and subtype_oracle, with memos and one
    TypeOps shared within a batch as the acceptance criteria share them."""

    exact_fields = ("subtype",)

    def __init__(self, seed: int):
        keys, rows = load_universe_ref()
        by_stack = universe_by_stack()
        types = acceptance.modal_universe()
        if len(types) != UNIVERSE_TYPES or set(types) != set(by_stack) \
                or sorted(by_stack.values()) != sorted(keys):
            raise RuntimeError("modal universe differs from the reference")
        if sum(bin(r).count("1") for r in rows) != UNIVERSE_TRUE_PAIRS:
            raise RuntimeError("universe reference is corrupt")
        by_key = {k: t for t, k in by_stack.items()}
        self.types = [by_key[k] for k in keys]
        self.keys = keys
        self.rows = rows
        n = len(keys)
        draw = random.Random(seed).sample(range(n * n),
                                          UNIVERSE_BATCH * UNIVERSE_BATCHES)
        self.batches = [[divmod(x, n) for x in draw[i:i + UNIVERSE_BATCH]]
                        for i in range(0, len(draw), UNIVERSE_BATCH)]

    def _growth_group(self, i: int, j: int) -> str | None:
        da, db = len(self.keys[i]), len(self.keys[j])
        if da <= 3 and db <= 3:
            return "small"
        if da == 4 and db == 4:
            return "large"
        return None

    def round(self, rec, tr) -> None:
        for batch in self.batches:
            ops = typeops.TypeOps(Signature())
            sub_memo: dict = {}
            oracle_memo: dict = {}
            fwd = reconstruct.FwdElaborator(ops)
            for i, j in batch:
                with tr.op():
                    self._item(i, j, ops, sub_memo, oracle_memo, fwd, rec)
            tr.count("subtyping.memo_entries", len(sub_memo))

    def _item(self, i, j, ops, sub_memo, oracle_memo, fwd, rec) -> None:
        a, b = self.types[i], self.types[j]
        key = f"{self.keys[i] or '-'}<={self.keys[j] or '-'}"
        clock = Clock()
        try:
            with clock:
                s = subtyping.is_subtype(ops, a, b, memo=sub_memo)
                f = fwd.check(a, b)
                o = subtyping.subtype_oracle(ops, a, b, memo=oracle_memo)
        except Exception as e:  # a crash is a failed item, not an abort
            rec.item(key, clock.seconds, 1, error=e)
            return
        dt = clock.seconds
        group = self._growth_group(i, j)
        rec.item(key, dt, 1, growth={group: (dt, 1)} if group else None,
                 exact=(s,), error=pair_error(bool(self.rows[i] >> j & 1),
                                              s, f, o))


WORKLOADS = {
    "run-scaled": run_scaled,
    "preserve": preserve,
    "compile": CompileWorkload,
    "universe": UniverseWorkload,
}

"""The one way from source text to a run: parse -> ground -> instrument
(cost-model ticks) -> reconstruct -> explicit check, then execute on the
timed interpreter, optionally re-typing every configuration
(preservation)."""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Signature
from .checker import check_signature
from .cost import instrument
from .errors import TssError
from .instantiate import (instantiate_many, mangled_name,
                          signature_is_parameterized)
from .parser import parse_program
from .reconstruct import elaborate_signature
from .runtime import (Configuration, Engine, Trace, check_each_step,
                      init_config, make_scheduler, root_chain)
from .typeops import TypeOps, check_contractive


@dataclass
class Program:
    ticked: Signature  # ground, with the cost model's ticks
    elab: Signature  # the explicit program (`ticked` itself if explicit)
    ops: TypeOps  # one per load: elaboration, the check and the runs
    main: str | None  # the ground name of the requested root
    verdict: str  # "ok" | "recon_error" | "type_error"
    errors: list[Exception]

    def run(self, sched: str = "rr", seed: int = 0, steps: int = 10_000,
            trace: Trace | None = None, check: bool = False
            ) -> tuple[Configuration, str, list[tuple[str, str, int]]]:
        """Run `main` to quiescence or for `steps` steps; with `check`,
        typecheck the configuration before the first step and after every
        one.  Returns (final configuration, status, root chain)."""
        cfg = init_config(self.elab, self.main)
        final, status = Engine(self.elab, self.ops).run(
            cfg, make_scheduler(sched, seed), steps, trace=trace,
            on_step=check_each_step(self.ops, cfg) if check else None)
        return final, status, root_chain(final, next(iter(cfg.objs)))


def load(text: str, roots: list[str], bind: dict[str, int], cost: str,
         explicit: bool = False) -> Program:
    """Take source text to a checked program.  With `roots`, ground those
    under `bind`; without, ground every parameter-free process of a
    parameterized file.  `explicit` skips reconstruction: the text must
    already carry its temporal actions, and the one check that follows
    gives a printed elaboration its source's verdict."""
    src = parse_program(text)
    check_contractive(src)
    main = mangled_name(src, roots[0], bind) if roots else None
    if not roots and signature_is_parameterized(src):
        roots = [n for n, pd in src.procdecls.items() if pd.arity == 0]
        if not roots:
            raise TssError("program is parameterized; pass --def/--main "
                           "with --bind to pick an instance")
    ground = instantiate_many(src, roots, bind) if roots or bind else src
    ticked = instrument(ground, cost)
    # Elaboration rewrites only bodies, and `TypeOps` reads only type
    # definitions and declarations: one instance serves every stage.
    ops = TypeOps(ticked)
    elab, errors = (ticked, []) if explicit else \
        elaborate_signature(ticked, ops=ops)
    if errors:
        return Program(ticked, elab, ops, main, "recon_error", errors)
    errors = check_signature(elab, ops)
    return Program(ticked, elab, ops, main,
                   "type_error" if errors else "ok", errors)

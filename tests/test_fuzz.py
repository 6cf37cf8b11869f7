"""Randomized validation: programs generated by walking the typing rules
backwards typecheck by construction; the pipeline and the interpreter must
then agree with them."""

import pytest
from hypothesis import given, settings, strategies as st

from fuzzgen import gen_program, strip_temporal
from tss.ast import DefClause, ProcDef, Signature
from tss.checker import check_signature
from tss.cost import _instrument, erase_ticks
from tss.parser import parse_program
from tss.printer import pretty_print
from tss.reconstruct import elaborate_signature
from tss.runtime import (Engine, check_each_step, init_config, is_poised,
                         make_scheduler, root_chain)
from tss.typeops import TypeOps

SEEDS = range(60)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_programs_check_and_run(seed):
    sig = gen_program(seed)
    assert not check_signature(sig), f"generator produced an ill-typed term"
    ops = TypeOps(sig)
    eng = Engine(sig, ops)
    observations = []
    for sched, s in (("rr", 0), ("rand", seed), ("sync", 0)):
        cfg = init_config(sig, "main")
        final, status = eng.run(cfg, make_scheduler(sched, s), 3000,
                                on_step=check_each_step(ops, cfg))
        assert status == "quiescent"
        assert is_poised(final)
        obs = [(k, lab if k == "label" else "", t)
               for k, lab, t in root_chain(final, cfg.order[0])]
        observations.append(obs)
    assert all(o == observations[0] for o in observations)


@pytest.mark.parametrize("seed", SEEDS)
def test_reconstruction_recovers_erased_programs(seed):
    # The generated program witnesses that a valid temporal elaboration of
    # its skeleton exists, so reconstruction must find one too.
    sig = gen_program(seed)
    skeleton = Signature(dict(sig.typedefs), dict(sig.procdecls), {})
    cl = sig.procdefs["main"].clauses[0]
    skeleton.procdefs["main"] = ProcDef(
        "main", [DefClause((), cl.dest, cl.chans, strip_temporal(cl.body))])
    elab, errors = elaborate_signature(skeleton)
    assert not errors, [str(e) for e in errors]
    assert not check_signature(elab)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_generated_programs_round_trip_through_the_printer(seed):
    sig = gen_program(seed)
    assert parse_program(pretty_print(sig)) == sig


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_random_processes_round_trip_and_tick_erasure_undoes_instrumenting(
        seed):
    sig = gen_program(seed)
    text = pretty_print(sig)
    back = parse_program(text)
    assert pretty_print(back) == text
    for name, pdef in sig.procdefs.items():
        body = pdef.clauses[0].body
        assert back.proc_body(name).body == body
        assert back.decl(name).offer_type is sig.decl(name).offer_type
        for sends in (False, True):
            assert erase_ticks(_instrument(body, sends)) == body

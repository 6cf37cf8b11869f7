import pytest

from tss.ast import Delay, Origin, subprocs
from tss.cost import erase_ticks, instrument
from tss.errors import InstrumentError
from tss.parser import parse_program
from tss.pipeline import load
from tss.printer import pretty_print

COPY_SRC = """
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl copy : (y : bits) |- (x : ()bits)
proc x <- copy <- y =
  case y ( b0 => x.b0 ; x <- copy <- y
         | b1 => x.b1 ; x <- copy <- y
         | $  => x.$ ; wait y ; close x )
"""


def test_r_places_tick_after_every_receive():
    sig = instrument(parse_program(COPY_SRC), "r")
    body = pretty_print(sig).splitlines()
    text = "\n".join(body)
    # One tick opening each branch and one after the wait; sends unticked.
    assert text.count("tick ;") == 4
    assert "wait y ;\n        tick ;\n        close x" in text


def test_rs_also_charges_sends():
    sig = instrument(parse_program(COPY_SRC), "rs")
    assert pretty_print(sig).count("tick ;") == 7  # 3 case + 1 wait + 3 sends


def test_stack_elem_rs_golden():
    src = """
type eltA = +{ v : ()1 }
type stack = &{ push : ()([]eltA -o ()[]stack),
                pop : ()+{ none : ()1, some : ()([]eltA * ()[]stack) } }
decl selem : (x : []eltA) (t : []stack) |- (s : []stack)
proc s <- selem <- x t =
  case s ( push => y <- recv s ; s2 <- selem <- x t ; s <- selem <- y s2
         | pop => s.some ; send s x ; s <- t )
"""
    out = pretty_print(instrument(parse_program(src), "rs"))
    # Receives: each of the two case branches and the recv; sends: the
    # label and the channel send.  Spawns and the forward stay untouched.
    assert out.count("tick ;") == 5
    push = out.split("| pop")[0]
    assert "y <- recv s ;\n        tick ;" in push


def test_free_is_identity():
    sig = parse_program(COPY_SRC)
    assert instrument(sig, "free") is sig


def test_double_instrumentation_rejected():
    sig = instrument(parse_program(COPY_SRC), "r")
    with pytest.raises(InstrumentError, match="already"):
        instrument(sig, "r")


def test_erasing_ticks_recovers_source():
    sig = parse_program(COPY_SRC)
    ticked = instrument(sig, "rs")
    recovered = erase_ticks(ticked.procdefs["copy"].clauses[0].body)
    assert recovered == sig.procdefs["copy"].clauses[0].body


def test_unknown_model_rejected():
    with pytest.raises(InstrumentError):
        instrument(parse_program(COPY_SRC), "zzz")


def test_ticks_carry_the_position_of_the_action_they_charge():
    body = instrument(parse_program(COPY_SRC), "rs").procdefs["copy"] \
        .clauses[0].body
    ticks, todo = 0, [body]
    while todo:
        p = todo.pop()
        for q in subprocs(p):
            if isinstance(q, Delay) and q.origin is Origin.TICK:
                assert q.pos == p.pos is not None
                ticks += 1
            todo.append(q)
    assert ticks == 7
    # A failure at an inserted tick names the action's position.
    prog = load("decl f : . |- (x : +{a : 1})\n"
                "proc x <- f = x.a ; close x\n", [], {}, "rs")
    assert prog.verdict == "recon_error"
    assert str(prog.errors[0]).endswith(
        "deepest failing goal: 2:15 [()LR] offered type does not allow a "
        "delay (expected ?, found 1)")

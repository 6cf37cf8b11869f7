import pytest

from tss import corpus, runtime
from tss.ast import ONE, Delay, Origin, Plus, TypeName
from tss.checker import check_process, check_signature
from tss.errors import SessionTypeError
from tss.parser import parse_program
from tss.typeops import TypeOps

# The timed copy process written out with all its ticks, which is exactly
# what the cost model produces from the plain source.
COPY_EXPLICIT = """
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl copy : (y : bits) |- (x : ()bits)
proc x <- copy <- y =
  case y ( b0 => tick ; x.b0 ; x <- copy <- y
         | b1 => tick ; x.b1 ; x <- copy <- y
         | $  => tick ; x.$ ; wait y ; tick ; close x )
"""


def check_ok(src):
    sig = parse_program(src)
    errors = check_signature(sig)
    assert not errors, [str(e) for e in errors]
    return sig


def first_error(src):
    errors = check_signature(parse_program(src))
    assert errors
    return errors[0]


def test_copy_checks_at_latency_one():
    check_ok(COPY_EXPLICIT)


def test_forward_requires_equal_types():
    # Identifying the two channels erases the latency the type demands.
    err = first_error("""
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl bad : (y : bits) |- (x : ()bits)
proc x <- bad <- y =
  case y ( b0 => tick ; x.b1 ; x <- y
         | b1 => tick ; x.b0 ; x <- bad <- y
         | $  => tick ; x.$ ; wait y ; tick ; close x )
""")
    assert err.rule == "id"


def test_delay_needs_every_channel_ready():
    err = first_error("""
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
decl f : (y : bits) |- (x : ()bits)
proc x <- f <- y = delay ; x <- y
""")
    assert err.rule == "()LR"


def test_close_rejects_leftover_channels():
    err = first_error("""
type t = ()1
decl f : (y : t) |- (x : 1)
proc x <- f <- y = close x
""")
    assert err.rule == "1R"


def test_unknown_label_rejected():
    err = first_error("""
type t = +{ a : 1 }
decl f : . |- (x : t)
proc x <- f = x.b ; close x
""")
    assert err.rule == "+R"


def test_case_must_cover_branch_set_exactly():
    err = first_error("""
type t = +{ a : 1, b : 1 }
decl f : (y : t) |- (x : 1)
proc x <- f <- y = case y ( a => wait y ; close x )
""")
    assert err.rule == "+L"


def test_when_requires_patient_context():
    err = first_error("""
type t = +{ a : ()1 }
decl f : (y : t) |- (x : []t)
proc x <- f <- y = when? x ; y.a ; wait y ; x.a ; delay ; close x
""")
    assert err.rule == "[]R"


def test_error_isolation_one_bad_one_good():
    errors = check_signature(parse_program("""
type one = 1
decl good : . |- (x : one)
proc x <- good = close x
decl bad : . |- (x : one)
proc x <- bad = delay ; close x
"""))
    assert len(errors) == 1
    assert "bad" in str(errors[0])


def test_determinism_same_error_twice():
    src = """
type t = +{ a : 1 }
decl f : . |- (x : t)
proc x <- f = x.b ; close x
"""
    a = first_error(src)
    b = first_error(src)
    assert str(a) == str(b)


def _flip_ticks(p):
    from tss.ast import (Case, Cut, Spawn, SendLabel, Wait, SendChan, RecvChan,
                         When, Now)
    match p:
        case Delay(count, origin, cont):
            origin = Origin.SOURCE if origin is Origin.TICK else origin
            return Delay(count, origin, _flip_ticks(cont))
        case Case(chan, branches):
            return Case(chan, tuple((lab, _flip_ticks(b)) for lab, b in branches))
        case Cut(dest, annot, body, cont):
            return Cut(dest, annot, _flip_ticks(body), _flip_ticks(cont))
        case Spawn(dest, proc, args, chans, cont, via):
            return Spawn(dest, proc, args, chans, _flip_ticks(cont), via)
        case SendLabel(chan, label, cont):
            return SendLabel(chan, label, _flip_ticks(cont))
        case Wait(chan, cont):
            return Wait(chan, _flip_ticks(cont))
        case SendChan(chan, payload, cont):
            return SendChan(chan, payload, _flip_ticks(cont))
        case RecvChan(bind, chan, cont):
            return RecvChan(bind, chan, _flip_ticks(cont))
        case When(chan, cont):
            return When(chan, _flip_ticks(cont))
        case Now(chan, cont):
            return Now(chan, _flip_ticks(cont))
        case _:
            return p


def test_tick_is_a_synonym_for_delay():
    sig = parse_program(COPY_EXPLICIT)
    assert not check_signature(sig)
    cl = sig.procdefs["copy"].clauses[0]
    cl.body = _flip_ticks(cl.body)
    assert not check_signature(sig)


def test_check_process_direct_sequent():
    sig = parse_program("type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }")
    ops = TypeOps(sig)
    from tss.ast import Close
    # |- (x.b0 ; delay ; ... would need the rest of six) — check a prefix
    # sequent directly instead: . |- close x :: (x : 1) is fine, and the
    # same term at bits is not.
    check_process(ops, {}, Close("x"), "x", parse_program("type t = 1").type_body("t"))
    with pytest.raises(SessionTypeError):
        check_process(ops, {}, Close("x"), "x", TypeName("bits"))


def test_explicit_skip1s_with_idle_process():
    # The fully explicit variant: readiness announced by hand and the
    # recursive call routed through an idling helper.
    check_ok("""
type bits = +{ b0 : ()bits, b1 : ()bits, $ : ()1 }
type sbits = +{ b0 : ()sbits, b1 : ()<>sbits, $ : ()1 }
decl compress : (y : bits) |- (x : ()sbits)
decl skip1s : (y : bits) |- (x : ()<>sbits)
decl idle : (y : ()<>sbits) |- (x : <>sbits)
proc x <- idle <- y = delay ; x <- y
proc x <- compress <- y =
  case y ( b0 => tick ; x.b0 ; x <- compress <- y
         | b1 => tick ; x.b1 ; x <- skip1s <- y
         | $  => tick ; x.$ ; wait y ; tick ; close x )
proc x <- skip1s <- y =
  case y ( b0 => tick ; now! x ; x.b0 ; x <- compress <- y
         | b1 => tick ; x2 : ()<>sbits <- (x2 <- skip1s <- y) ; x <- idle <- x2
         | $  => tick ; now! x ; x.$ ; wait y ; tick ; close x )
""")


def test_a_huge_delay_checks_in_constant_time():
    check_ok("""
decl f : . |- (x : ()^{1000000000} 1)
proc x <- f = delay{1000000000} ; close x
""")


def test_a_huge_delay_fails_where_the_unit_loop_fails():
    # The offer runs out of delays one unit before the delay does.
    err = first_error("""
decl f : (y : ()^{1000000000} []1) |- (x : ()^{999999999} 1)
proc x <- f <- y = delay{1000000000} ; close x
""")
    assert err.rule == "()LR"
    assert str(err).endswith("offered type does not allow a delay "
                             "(expected ?, found 1)")


def test_delay_of_n_units_matches_n_unit_delays():
    # The n-unit shift of a Delay node (`shift_all`, or `delay_stop` when it
    # is undefined) gives the unit loop's context, or its error: same rule,
    # same message, same channel, same type.
    from tss.ast import Box, Close, Diamond, One, next_type
    from tss.checker import Stop, delay_stop, rule, shift_all
    from tss.printer import fmt_type
    sig = parse_program("""
type x = ()x
type u = ()v
type v = ()()u
type a = ()b
type b = ()^2 []1
type d = ()<>1
""")
    ops = TypeOps(sig)
    bases = [One(), Box(One()), Diamond(One()), TypeName("x"), TypeName("u"),
             TypeName("a"), TypeName("d")]
    types = [next_type(k, b) for k in range(4) for b in bases]
    node = Delay(1, Origin.SOURCE, None)

    def n_units(ctx, offer, n):
        shifted = shift_all(ops, ctx, offer, n)
        got = rule(ops, ctx, Delay(n, Origin.SOURCE, Close("x")), "x", offer)
        if shifted is None:
            e = delay_stop(ops, ctx, offer, n).error(node)
            assert isinstance(got, Stop) and str(got.error(node)) == str(e)
            return str(e), e.rule, e.found
        assert got == ((shifted[0], Close("x"), "x", shifted[1]),)
        return shifted

    def unit_loop(ctx, offer, n):
        for _ in range(n):
            for c, t in ctx.items():
                if ops.shift_left(t) is None:
                    return (f"[()LR] channel {c} does not allow a delay "
                            f"(expected ?, found {fmt_type(t)})", "()LR",
                            fmt_type(t))
            if ops.shift_right(offer) is None:
                return (f"[()LR] offered type does not allow a delay "
                        f"(expected ?, found {fmt_type(offer)})", "()LR",
                        fmt_type(offer))
            ctx = {c: ops.shift_left(t) for c, t in ctx.items()}
            offer = ops.shift_right(offer)
        return ctx, offer

    for i, left in enumerate(types):
        for right in types[i % 5::5]:
            for offer in types[i % 3::3]:
                ctx = {"y": left, "z": right}
                for n in range(1, 8):
                    assert n_units(ctx, offer, n) == unit_loop(ctx, offer, n)


def test_checker_and_reconstruction_reject_a_channel_count_mismatch_alike():
    # The parser rejects this shape, so the signature is built by hand.
    from dataclasses import replace
    from tss.reconstruct import elaborate_signature
    sig = parse_program(COPY_EXPLICIT.replace("tick ; ", ""))
    pdef = sig.procdefs["copy"]
    sig.procdefs["copy"] = replace(pdef, clauses=[
        replace(pdef.clauses[0], chans=("y", "z"))])
    want = "in copy: definition of copy binds 2 channels, decl has 1"
    checked = check_signature(sig)
    assert [str(e) for e in checked] == [want]
    assert (checked[0].rule, checked[0].pos) == ("", None)
    _, elaborated = elaborate_signature(sig)
    assert [(type(e), str(e)) for e in elaborated] == \
        [(SessionTypeError, want)]


# ---------------------------------------------------------------------------
# The sequents a run's configuration check remembers

ODD = Plus((("zz", ONE),))  # no program of these tests acts on label zz


def _message(check, ctx, p, chan, offer):
    try:
        check(dict(ctx), p, chan, offer)
    except SessionTypeError as e:
        return str(e)
    return None


def _cold(ops):
    """The explicit checker as `check_process` runs it, with nothing kept."""
    return lambda *sequent: check_process(ops, *sequent)


def _copy_sequents():
    sig = parse_program(COPY_EXPLICIT)
    ops = TypeOps(sig)
    sequents = runtime._Sequents(ops)
    dcl, ctx, offer = sig.def_goal("copy")
    sequents.check(ctx, dcl.body, dcl.dest, offer)
    return ops, sequents


def _run_sequents():
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    cfg = runtime.init_config(prog.elab, prog.main)
    declared = {cfg.order[0]: cfg.ptypes[cfg.order[0]]}
    cache: dict = {}

    def check(c):
        runtime.check_configuration(prog.ops, {}, c, declared, cache)

    check(cfg)
    runtime.Engine(prog.elab, prog.ops).run(
        cfg, runtime.make_scheduler("rr"), 10_000, on_step=check)
    return prog.ops, cache[runtime._Checker].sequents


@pytest.mark.parametrize("remembered", [_copy_sequents, _run_sequents])
def test_a_remembered_sequent_is_rejected_when_its_key_changes(remembered):
    # Every sequent accepted at any level of a derivation, with one part of
    # it changed: the offer type, one context type or the offered name.
    # The changed sequent is rejected as a cold check rejects it.
    ops, sequents = remembered()
    accepted = list(sequents.accepted)
    assert len(accepted) > 4
    for p, items, chan, offer in accepted:
        ctx = dict(items)
        changed = [(ctx, chan, ODD), (ctx, "zz", offer)]
        changed += [({**ctx, c: ODD}, chan, offer) for c in ctx]
        for ctx2, chan2, offer2 in changed:
            cold = _message(_cold(ops), ctx2, p, chan2, offer2)
            assert cold is not None
            assert _message(sequents.check, ctx2, p, chan2, offer2) == cold
        assert _message(sequents.check, ctx, p, chan, offer) is None


def test_a_rejected_sequent_is_never_remembered():
    sig = parse_program(COPY_EXPLICIT)
    ops = TypeOps(sig)
    sequents = runtime._Sequents(ops)
    dcl, ctx, _ = sig.def_goal("copy")
    bits = TypeName("bits")  # one unit too early for the declared ()bits
    cold = _message(_cold(ops), ctx, dcl.body, dcl.dest, bits)
    assert cold is not None
    for _ in range(2):
        assert _message(sequents.check, ctx, dcl.body, dcl.dest, bits) == cold
    assert (dcl.body, frozenset(ctx.items()), dcl.dest, bits) \
        not in sequents.accepted


def test_every_process_form_has_a_rule():
    # Both engines read `rule`, so a form it does not know would reach
    # neither; the table below must name every form `ast` has.
    from tss.ast import (CHAN_FIELDS, ONE, Case, Close, Cut, Fwd, Now,
                         RecvChan, SendChan, SendLabel, Spawn, TailCall, Wait,
                         When)
    from tss.checker import Stop, rule
    ops = TypeOps(parse_program("decl f : (y : 1) |- (x : 1)"))
    end = Close("x")
    nodes = [Spawn("z", "f", (), ("y",), end), TailCall("x", "f", (), ("y",)),
             Cut("z", ONE, Close("z"), end), Fwd("x", "y"),
             SendLabel("x", "a", end), Case("y", (("a", end),)), end,
             Wait("y", end), SendChan("x", "y", end), RecvChan("z", "x", end),
             Delay(1, Origin.SOURCE, end), When("x", end), Now("x", end)]
    assert {type(p) for p in nodes} == set(CHAN_FIELDS)

    def unhandled(got):
        return isinstance(got, Stop) and got.msg.startswith(
            "unhandled process form")

    for p in nodes:
        for chan, offer in (("x", ONE), ("y", Plus((("a", ONE),)))):
            assert not unhandled(rule(ops, {"y": ONE}, p, chan, offer)), p
    assert unhandled(rule(ops, {}, object(), "x", ONE))

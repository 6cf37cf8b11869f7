import pytest

from tss import corpus, pipeline, typeops
from tss.printer import pretty_print
from tss.runtime import is_poised


@pytest.mark.parametrize("spec", corpus.check_specs(),
                         ids=lambda s: f"{s.file}:{s.root}{s.bind}")
def test_expected_verdict(spec):
    prog = corpus.load(spec.file, spec.root, spec.bind, spec.cost)
    assert prog.verdict == spec.expect


@pytest.mark.parametrize("spec", corpus.run_specs(),
                         ids=lambda s: f"{s.file}:{s.main}{s.bind}")
def test_runs_do_not_get_stuck(spec):
    prog = corpus.load(spec.file, spec.main, spec.bind, spec.cost)
    final, status, _ = prog.run(steps=spec.steps)
    if status == "quiescent":
        assert is_poised(final)


def test_one_type_ops_per_load(monkeypatch):
    # Elaboration, the signature check and the runs share the load's one
    # `TypeOps`, with its memos: a verdict, a rejection and an explicit
    # program each build one.
    made = []
    real = typeops.TypeOps.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(typeops.TypeOps, "__init__", counting)
    prog = corpus.load("queue_rs.tss", "qmain", {"n": 2}, "rs")
    assert prog.verdict == "ok" and made == [prog.ops]
    prog.run(check=True)
    assert made == [prog.ops]
    bad = corpus.load("fold_paper_rs.tss", "fmain", {"n": 1, "k": 0}, "rs")
    assert bad.verdict == "recon_error" and made[1:] == [bad.ops]
    explicit = pipeline.load(pretty_print(prog.elab), [], {}, "free", True)
    assert made[2:] == [explicit.ops]

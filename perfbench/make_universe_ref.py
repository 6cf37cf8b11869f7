"""Regenerate universe_ref.json, the frozen subtype matrix of the depth-4
modal universe that the `universe` workload checks every verdict against.

    PYTHONPATH=src python3 perfbench/make_universe_ref.py

The matrix is decided by is_subtype and kept only if FwdElaborator.check and
subtype_oracle agree on every pair and it has 24,483 true pairs out of
61,009 (the count acceptance criteria 8, 9 and 13 quantify over).  Types are
keyed by their shortest constructor stack, not by printed text or by
generation order, so the file stays valid across printer changes.
"""

import json
from pathlib import Path

from tss.ast import Signature
from tss.reconstruct import FwdElaborator
from tss.subtyping import is_subtype, subtype_oracle
from tss.typeops import TypeOps

from workloads import UNIVERSE_TRUE_PAIRS, universe_by_stack


def main() -> None:
    by_stack = universe_by_stack()
    types, keys = list(by_stack), list(by_stack.values())
    ops = TypeOps(Signature())
    fwd = FwdElaborator(ops)
    sub_memo: dict = {}
    oracle_memo: dict = {}
    rows = []
    for a in types:
        row = 0
        for j, b in enumerate(types):
            s = is_subtype(ops, a, b, memo=sub_memo)
            if s != fwd.check(a, b) or s != subtype_oracle(ops, a, b,
                                                           memo=oracle_memo):
                raise SystemExit(f"procedures disagree on {a} <= {b}")
            row |= s << j
        rows.append(row)
    true_pairs = sum(bin(r).count("1") for r in rows)
    if true_pairs != UNIVERSE_TRUE_PAIRS:
        raise SystemExit(f"{true_pairs} true pairs, expected "
                         f"{UNIVERSE_TRUE_PAIRS}")
    out = Path(__file__).resolve().parent / "universe_ref.json"
    out.write_text(json.dumps({"keys": keys,
                               "rows": [format(r, "x") for r in rows]},
                              indent=0) + "\n")
    print(f"{len(keys)} types, {true_pairs} true pairs -> {out}")


if __name__ == "__main__":
    main()

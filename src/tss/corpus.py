"""Access to the bundled example programs and their expected verdicts."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import pipeline
from .ast import Signature
from .parser import parse_program
from .pipeline import Program

CORPUS_DIR = Path(__file__).parent / "corpus"


@dataclass
class RunSpec:
    file: str
    cost: str
    main: str
    bind: dict[str, int]
    steps: int


@dataclass
class CheckSpec:
    file: str
    cost: str
    root: str
    bind: dict[str, int]
    expect: str  # "ok" | "recon_error"


def manifest() -> dict:
    return json.loads((CORPUS_DIR / "manifest.json").read_text())


def source(filename: str) -> str:
    return (CORPUS_DIR / filename).read_text()


def parse(filename: str) -> Signature:
    return parse_program(source(filename))


def run_specs() -> list[RunSpec]:
    out = []
    for prog in manifest()["programs"]:
        for r in prog["runs"]:
            out.append(RunSpec(prog["file"], prog["cost"], r["main"],
                               dict(r["bind"]), r["steps"]))
    return out


def check_specs() -> list[CheckSpec]:
    out = []
    for prog in manifest()["programs"]:
        for r in prog["runs"]:
            out.append(CheckSpec(prog["file"], prog["cost"], r["main"],
                                 dict(r["bind"]), "ok"))
        for c in prog["checks"]:
            out.append(CheckSpec(prog["file"], prog["cost"], c["root"],
                                 dict(c["bind"]), c["expect"]))
    return out


def load(file: str, root: str, bind: dict[str, int], cost: str) -> Program:
    """A bundled program through the pipeline, grounded at `root`."""
    return pipeline.load(source(file), [root], bind, cost)

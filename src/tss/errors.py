"""Exception hierarchy shared by the whole toolchain."""

from __future__ import annotations


class TssError(Exception):
    """Base class for all user-facing errors."""


class ParseError(TssError):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.msg = msg
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"{line}:{col}"
        if expected:
            msg = f"{msg} (expected one of: {', '.join(expected)})"
        super().__init__(f"{loc}: {msg}")


class ScopeError(TssError):
    """Unbound name, arity mismatch, or duplicate definition, at the source
    position of the definition or call it is about when there is one."""

    def __init__(self, msg: str, pos=None):
        self.msg = msg
        self.pos = pos
        super().__init__(msg if pos is None else f"{pos[0]}:{pos[1]}: {msg}")


class EvalError(TssError):
    """Index expression could not be evaluated or no clause matches."""


class ContractivenessError(TssError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"type definition '{name}' is not contractive")


class BudgetExceededError(TssError):
    """A decision procedure ran past its configured bound."""


class SessionTypeError(TssError):
    """Typing failure; carries the rule that was attempted and the mismatch."""

    def __init__(self, msg: str, *, rule: str = "", pos=None,
                 expected: str = "", found: str = "", ctx: str = ""):
        self.msg = msg
        self.rule = rule
        self.pos = pos
        self.expected = expected
        self.found = found
        self.ctx = ctx
        parts = []
        if pos is not None:
            parts.append(f"{pos[0]}:{pos[1]}")
        if rule:
            parts.append(f"[{rule}]")
        parts.append(msg)
        if expected or found:
            parts.append(f"(expected {expected or '?'}, found {found or '?'})")
        if ctx:
            parts.append(f"in context {ctx}")
        super().__init__(" ".join(parts))


class ReconstructionError(TssError):
    """Basic skeleton is fine but no insertion of temporal actions typechecks."""


class InstrumentError(TssError):
    """Source handed to the cost instrumenter already carries ticks."""


class ConfigTypeError(TssError):
    """A configuration object fails to typecheck at its interface."""


class StuckError(TssError):
    """No rule is enabled yet some object is not poised (progress violation)."""


class RunError(TssError):
    """Bad arguments to the interpreter (unknown process, non-empty context)."""

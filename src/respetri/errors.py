"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class RespetriError(Exception):
    """Base class for all toolkit errors."""


class UnknownTransition(RespetriError):
    pass


class UnknownReference(RespetriError):
    """A predicate refers to a place, transition, or mode the net does not
    declare, or a marking does not assign exactly the net's places and counters."""


class NotEnabled(RespetriError):
    """A firing was attempted for a transition that is not enabled."""

    def __init__(self, transition: str):
        super().__init__(f"transition {transition!r} is not enabled")
        self.transition = transition


class UnknownPredicate(RespetriError):
    pass


class NotUpwardClosed(RespetriError):
    """The target predicate is not syntactically upward-closed."""


class NodeNotInGraph(RespetriError):
    pass


class ScriptedFiringDisabled(RespetriError):
    def __init__(self, step: int, transition: str):
        super().__init__(f"scripted firing of {transition!r} at step {step} is disabled")
        self.step = step
        self.transition = transition


class PressureUnavailable(RespetriError):
    """A visited marking lies outside the explored graph and the bound was exhausted."""


class DanglingReference(RespetriError):
    pass


class UnknownTarget(RespetriError):
    pass


class HashChainBroken(RespetriError):
    pass


class PatchError(RespetriError):
    """A patch operation cannot be applied (malformed or conflicting edit)."""


class MacroError(RespetriError):
    """A macro is malformed."""


class MacroArity(MacroError):
    """A macro argument is out of range or missing."""


class UnknownTransitionInMacro(MacroError):
    """A macro names a transition the model does not declare."""


class ParseFailure(RespetriError):
    """Raised by the parser; carries the list of ParseError values."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


class StructureFailure(RespetriError):
    """A model fails validate_net; carries StructureError values. Raised by
    `net.compiled`, which parse_model and every engine go through."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


class ResultingModelInvalid(StructureFailure):
    """A patched model fails validate_net, as with a DuplicateArc or DuplicateId."""

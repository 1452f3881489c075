"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "EqlargeError",
    "NotAGroup",
    "NotAPermutation",
    "NotASubgroup",
    "NotNormal",
    "UnknownSpec",
    "OrderBound",
    "IndexBound",
    "BudgetExceeded",
    "EmptySubset",
    "ParseError",
    "UnboundConstant",
    "ArityMismatch",
    "NotASupercommutator",
    "NoXVariable",
    "PreconditionViolated",
    "ActionNotClosed",
    "UnknownCheck",
    "UnknownQuestion",
]


class EqlargeError(Exception):
    """Base class for every error raised by this package."""


class NotAGroup(EqlargeError):
    """A multiplication table violates one of the group axioms.

    The message names the violated axiom; ``witness`` holds the offending
    indices (a row, a pair, or an associativity triple).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPermutation(EqlargeError):
    """A generator is not a bijection on the stated points."""


class NotASubgroup(EqlargeError):
    """A subset expected to be a subgroup is not closed (or misses the identity)."""


class NotNormal(EqlargeError):
    """A subgroup is not closed under conjugation; ``witness`` is (g, n)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownSpec(EqlargeError):
    """A group-spec string does not match the mini-language."""


class OrderBound(EqlargeError):
    """A construction or search exceeds its configured size bound."""


class IndexBound(EqlargeError):
    """A tuple enumeration would exceed the configured index bound."""


class BudgetExceeded(EqlargeError):
    """An exact search ran past its node or factor budget."""


class EmptySubset(EqlargeError):
    """No translate cover exists because the subset is empty."""


class ParseError(EqlargeError):
    """A word or equation string failed to parse; ``position`` is 0-based."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnboundConstant(EqlargeError):
    """A symbolic constant had no binding at evaluation time."""


class ArityMismatch(EqlargeError):
    """An assignment is shorter than the word's variable range."""


class NotASupercommutator(EqlargeError):
    """The word contains a node outside the inverse/commutator fragment."""


class NoXVariable(EqlargeError):
    """Linearization needs at least one designated variable in the word."""


class PreconditionViolated(EqlargeError):
    """A product factor fails the variable-count preconditions."""


class ActionNotClosed(EqlargeError):
    """An automorphism action table has a row that is not an automorphism."""


class UnknownCheck(EqlargeError):
    """No verifier check is registered under this id."""


class UnknownQuestion(EqlargeError):
    """No counterexample search is registered under this id."""

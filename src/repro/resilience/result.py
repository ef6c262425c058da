"""Result objects for resilience computations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..graphdb.database import Fact

INFINITE = math.inf


@dataclass(frozen=True)
class ResilienceResult:
    """The outcome of a resilience computation.

    Attributes:
        value: the resilience: the minimum number of facts (set semantics) or the
            minimum total multiplicity (bag semantics) to remove so that the
            query no longer holds; ``math.inf`` when the query cannot be falsified
            (i.e. the empty word belongs to the language).
        contingency_set: a witnessing minimum contingency set (``None`` when the
            value is infinite, or when the algorithm only computed the value).
        semantics: ``"set"`` or ``"bag"``.
        method: the name of the algorithm that produced the result.
        query: a human-readable description of the query language.
        details: free-form extra information (network sizes, preprocessing costs...).
    """

    value: float
    contingency_set: frozenset[Fact] | None
    semantics: str
    method: str
    query: str = ""
    details: dict = field(default_factory=dict)

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITE

    def with_query(self, query: str) -> "ResilienceResult":
        """Return a copy reported under a different query name.

        Results are frozen, so re-labelling (the engine and the serving layer
        report under the original query name, not the infix-free sublanguage's)
        always goes through a copy instead of mutating shared state.
        """
        return replace(self, query=query)

    def as_int(self) -> int:
        """Return the value as an integer (raises for infinite resilience)."""
        if self.is_infinite:
            raise ValueError("resilience is infinite")
        return int(self.value)

    def __repr__(self) -> str:
        cut = "∞" if self.is_infinite else str(self.as_int())
        return f"ResilienceResult(value={cut}, semantics={self.semantics!r}, method={self.method!r})"


def finite_value(value: float) -> float | int:
    """Normalize a finite value to an integer when it is exactly integral.

    No ``isclose``-style rounding: the min-cut solvers in
    :mod:`repro.flow.compiled` run in exact integer arithmetic, so an integral
    result arrives here as an exact float and anything else must be passed
    through unchanged.
    """
    if value == INFINITE:
        return INFINITE
    if isinstance(value, int):
        return value
    if float(value).is_integer():
        return int(value)
    return value

"""The one report type every checker returns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class Verdict:
    """The outcome of one verification or construction.

    ``verdict`` is pass, fail, infeasible or inconclusive; a failure
    carries at least one witness.  Witnesses, metrics and the result
    may hold elements, rationals, measures and algebras; the CLI
    renders them as canonical JSON.  ``seed`` is set when sampling
    was involved.
    """

    verdict: str
    witnesses: list
    metrics: dict
    seed: Optional[int] = None
    result: Any = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

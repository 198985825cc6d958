"""The one report type every checker returns, and `sweep`, which runs a verifier's stages."""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .core import _Record


class Verdict(_Record):
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


def sweep(stages: list[tuple[str, int, Iterable]], seed: Optional[int] = None) -> Verdict:
    """Run ``stages`` in order; the first failure ends the sweep.

    A stage is ``(counter, size, failures)``: ``size`` cases, known before
    the first, and ``failures`` lazily yields ``(position, witness)`` for
    each failing case of the verifier's own loop, so this function works
    per stage, never per case.  Every counter is reported from 0; a stage adds
    its size when it passes and position + 1 when it fails (-1 fails before
    the first case), and stages may share a counter.
    """
    counts = dict.fromkeys((counter for counter, _, _ in stages), 0)
    for counter, size, failures in stages:
        for position, witness in failures:
            counts[counter] += position + 1
            return Verdict("fail", [witness], counts, seed)
        counts[counter] += size
    return Verdict("pass", [], counts, seed)

"""Report types shared by membership, residual, and transport checks.

A check grades each of its conditions with is_zero and builds the
report here: ConditionReport.of turns a ZeroResult into a condition,
and combined_report gives the conditions the weakest of their verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .expr import NONZERO, NUMERIC_ZERO, SYMBOLIC_ZERO, ZeroResult

REJECTED = "REJECTED_PRECONDITION"
OBSTRUCTION = "OBSTRUCTION"
MEMBER = "MEMBER"

_RANK = {
    SYMBOLIC_ZERO: 0,
    NUMERIC_ZERO: 1,
    MEMBER: 1,
    NONZERO: 2,
    REJECTED: 3,
    OBSTRUCTION: 4,
}


def worst_verdict(verdicts: Iterable[str]) -> str:
    """The weakest evidence among verdicts; SYMBOLIC_ZERO when there are none.

    The order is SYMBOLIC_ZERO < NUMERIC_ZERO = MEMBER < NONZERO <
    REJECTED_PRECONDITION < OBSTRUCTION, and ties keep the first.
    Verdicts outside that list rank with NONZERO.
    """
    return max(verdicts, key=lambda v: _RANK.get(v, 2), default=SYMBOLIC_ZERO)


def _json_number(v: float) -> Union[float, str]:
    """v, or "inf", "-inf" or "nan" when it is not finite: strict JSON has no such numbers."""
    if math.isfinite(v):
        return v
    if math.isnan(v):
        return "nan"
    return "inf" if v > 0 else "-inf"


@dataclass
class ConditionReport:
    """One named condition inside a larger verification."""

    description: str
    ok: bool
    verdict: str
    detail: str = ""

    @classmethod
    def of(
        cls, description: str, zr: ZeroResult, ok: Optional[bool] = None
    ) -> ConditionReport:
        """The condition zr decides: it holds when zr vanishes, unless ok is given."""
        return cls(description, bool(zr) if ok is None else ok, zr.verdict, zr.summary())

    def to_json(self) -> Dict:
        out = {
            "description": self.description,
            "ok": self.ok,
            "verdict": self.verdict,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    """Outcome of a check, serializable to the JSON shape the CLI emits."""

    verdict: str
    residual_text: str
    tolerance: float
    seed: int
    summary: str
    samples: List[Tuple[Dict[str, float], float]] = field(default_factory=list)
    conditions: List[ConditionReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.conditions:
            return all(c.ok for c in self.conditions) and self.verdict not in (
                REJECTED,
                OBSTRUCTION,
            )
        return self.verdict in (SYMBOLIC_ZERO, NUMERIC_ZERO, MEMBER)

    def to_json(self) -> Dict:
        out = {
            "verdict": self.verdict,
            "residual_text": self.residual_text,
            "samples": [
                {"point": point, "value": _json_number(value)}
                for point, value in self.samples
            ],
            "tolerance": self.tolerance,
            "seed": self.seed,
            "summary": self.summary,
        }
        if self.conditions:
            out["conditions"] = [c.to_json() for c in self.conditions]
        return out


def held(conditions: Sequence[ConditionReport]) -> str:
    """How many conditions hold, as "k/n"."""
    return f"{sum(c.ok for c in conditions)}/{len(conditions)}"


def combined_report(
    conditions: Sequence[ConditionReport],
    residual_text: str,
    tol: float,
    seed: int,
    summary: str,
    samples: Sequence[Tuple[Dict[str, float], float]] = (),
) -> VerificationReport:
    """A report on conditions, its verdict the weakest of theirs."""
    return VerificationReport(
        verdict=worst_verdict(c.verdict for c in conditions),
        residual_text=residual_text,
        tolerance=tol,
        seed=seed,
        summary=summary,
        samples=list(samples),
        conditions=list(conditions),
    )


def rejected_report(
    reason: str,
    tol: float,
    seed: int,
    summary_prefix: str,
    conditions: Sequence[ConditionReport] = (),
) -> VerificationReport:
    """A REJECTED_PRECONDITION report whose residual text is the reason."""
    return VerificationReport(
        verdict=REJECTED,
        residual_text=reason,
        tolerance=tol,
        seed=seed,
        summary=summary_prefix + reason,
        conditions=list(conditions),
    )

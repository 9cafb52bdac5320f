"""Shared verdict types: three-valued membership, check reports, errors."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction


class Membership(str, Enum):
    IN = "In"
    OUT = "Out"
    BOUNDARY = "Boundary-ambiguous"


class Verdict(str, Enum):
    HOLDS = "Holds"
    FAILS = "FailsWithWitness"
    INCONCLUSIVE = "Inconclusive"


class InconclusiveError(RuntimeError):
    """A numeric classification fell inside an ambiguous tolerance band."""


def _json_value(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in sorted(v.items())}
    if isinstance(v, Enum):
        return v.value
    if hasattr(v, "item"):  # numpy scalar
        return v.item()
    return v


@dataclass
class CheckReport:
    """Outcome of a property check, with enough payload to re-verify it.

    A FailsWithWitness verdict always carries a witness that was re-checked
    independently at the stated tolerances before the report was issued.
    """

    verdict: Verdict
    kappa: Fraction | None = None
    witness: tuple | None = None
    samples: int = 0
    tolerances: dict = field(default_factory=dict)
    regime_warnings: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    tier: str = "exact"

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict is Verdict.FAILS

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict.value,
            "samples": self.samples,
            "tolerances": _json_value(self.tolerances),
            "regime_warnings": list(self.regime_warnings),
            "tier": self.tier,
        }
        if self.kappa is not None:
            out["kappa"] = {"num": str(self.kappa.numerator), "den": str(self.kappa.denominator)}
        if self.witness is not None:
            out["witness"] = _json_value(list(self.witness))
        if self.details:
            out["details"] = _json_value(self.details)
        return out

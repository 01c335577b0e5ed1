"""Result records shared by validators, property checks and theorem verifiers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckItem:
    """One named check with its worst-case residual.

    ``residual`` is compared against the caller's tolerance; ``vacuous``
    marks checks that passed because the space they quantify over is
    zero-dimensional, so downstream verifiers can refuse to build on them.
    """

    name: str
    passed: bool
    residual: float
    vacuous: bool = False
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "pass": bool(self.passed), "residual": float(self.residual)}
        if self.vacuous:
            out["vacuous"] = True
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant residual listing for a single object."""

    subject: str
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def max_violation(self) -> float:
        return max((item.residual for item in self.items), default=0.0)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.passed,
            "items": [item.to_json() for item in self.items],
        }


@dataclass(frozen=True)
class TheoremReport:
    """Hypotheses and conclusions of one theorem evaluated on one instance.

    Conclusions are always evaluated, even when hypotheses fail; a failed
    hypothesis only means the theorem does not assert them, which is what
    ``hypotheses_met`` records.  This keeps the verifiers usable as
    counterexample explorers.
    """

    theorem: str
    hypotheses: tuple[CheckItem, ...]
    conclusions: tuple[CheckItem, ...]
    dims: dict = field(default_factory=dict)
    #: side facts evaluated along the way (e.g. the four booleans of an
    #: equivalence theorem); they carry information but do not gate `passed`
    evaluated: tuple[CheckItem, ...] = ()

    @property
    def hypotheses_met(self) -> bool:
        return all(item.passed for item in self.hypotheses)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.conclusions)

    def to_json(self) -> dict:
        out = {
            "theorem": self.theorem,
            "hypotheses": [item.to_json() for item in self.hypotheses],
            "conclusions": [item.to_json() for item in self.conclusions],
            "hypotheses_met": self.hypotheses_met,
            "pass": self.passed,
            "dims": {k: int(v) for k, v in self.dims.items()},
        }
        if self.evaluated:
            out["evaluated"] = [item.to_json() for item in self.evaluated]
        return out

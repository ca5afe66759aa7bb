"""Relation-check reports shared by the verification suites.

JSON shape: ``{"relations": [{"relation_name", "max_residual", "pass"}, ...],
"pass": bool}``.  Reports are built from the (name, residual) pairs that the
check functions return: `RelationReport.from_residuals` takes the floats of
one point; a `ReportAccumulator` folds the arrays of a grid sweep, every
point of a relation into one entry (max residual wins), and records where
the worst was in `worst_at` and the sweep's point count in `instances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class RelationCheck:
    name: str
    residual: float
    passed: bool
    instances: int = 1
    worst_at: str = ""

    def to_json(self) -> dict:
        out = {
            "relation_name": self.name,
            "max_residual": self.residual,
            "pass": self.passed,
        }
        if self.instances != 1:
            out["instances"] = self.instances
        if self.worst_at:
            out["worst_at"] = self.worst_at
        return out


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[RelationCheck, ...]
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> list[RelationCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        out = {
            "relations": [c.to_json() for c in self.checks],
            "pass": self.passed,
            "tol": self.tol,
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_residuals(cls, named: list[tuple[str, float]], tol: float,
                       note: str = "") -> "RelationReport":
        checks = tuple(
            RelationCheck(name, float(r), float(r) <= tol) for name, r in named
        )
        return cls(checks=checks, tol=tol, note=note)


class ReportAccumulator:
    """Folds arrays of per-point relation residuals into a grid-level
    RelationReport; every relation is folded at each of the `points`."""

    def __init__(self, tol: float):
        self.tol = tol
        self._worst: dict[str, tuple[tuple, float, str]] = {}
        self.points = 0

    def add(self, name: str, residuals, label: Callable[[int], str],
            positions: Sequence[int]) -> None:
        """Fold one residual per point; a scalar stands for every point.

        `positions` holds the points' ascending places in the sweep order.
        NaN ranks above every number, then the largest residual wins, and
        ties (NaN against NaN too) go to the earliest place, so the fold
        depends neither on how the sweep is cut into arrays nor on the
        order the arrays come in.  label(i) names the i-th point; it is
        called only for a new worst point.
        """
        r = np.broadcast_to(residuals, (len(positions),))
        i = int(np.argmax(r))           # the first NaN, if there is one
        residual, at = float(r[i]), positions[i]
        nan = math.isnan(residual)
        rank = (nan, 0.0 if nan else residual, -at)
        worst = self._worst.get(name)
        if worst is None or rank > worst[0]:
            self._worst[name] = (rank, residual, label(i))

    def add_point(self, count: int) -> None:
        self.points += count

    def report(self, note: str = "") -> RelationReport:
        checks = tuple(
            RelationCheck(
                name,
                residual,
                residual <= self.tol,
                instances=self.points,
                worst_at=where,
            )
            for name, (_, residual, where) in sorted(self._worst.items())
        )
        return RelationReport(checks=checks, tol=self.tol, note=note)

"""Structured pass/fail reports produced by the axiom checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Failure:
    label: str      # which generator tuple / mode violated the axiom
    witness: str    # printable first nonzero witness


@dataclass(frozen=True)
class CheckReport:
    name: str
    failures: tuple = field(default_factory=tuple)
    detail: str = ""
    records: tuple = field(default_factory=tuple)  # (tuple label, passed) pairs

    @property
    def checked(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_witness(self) -> str:
        return self.failures[0].witness if self.failures else ""

    def lines(self) -> list:
        out = [f"{self.name}: {'pass' if self.passed else 'FAIL'}"
               + (f" ({self.detail})" if self.detail else "")]
        for label, ok in self.records:
            out.append(f"  {self.name} {label}: {'pass' if ok else 'FAIL'}")
        for f in self.failures:
            out.append(f"  violation at {f.label}: {f.witness}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())

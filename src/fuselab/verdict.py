"""Verdict objects returned by the verification operations.

A Verdict is an ordered tuple of named checks; it is truthy iff every check
passed. Failing checks carry a human-readable witness (index tuple, entry
value, ...) naming the violation. A verifier states each check once, as
check(name, witness) with witness None when it holds, under one of two rules.
Rings, modules and gauges (verify_axioms, verify_nimrep, validate_mu) stop at
the first failure (until_failure): a later check is undefined or wasted once
an earlier one fails, so none is computed. Modular data and invariants
(verify_modular_data, verify_invariant, match_diagonal, the phi verdict)
report every check, as each is independent and names its own witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class Verdict:
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_failure(self) -> Check | None:
        return next((c for c in self.checks if not c.passed), None)

    def as_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.as_dict() for c in self.checks]}

    def describe(self) -> str:
        if self.ok:
            return "pass (" + ", ".join(c.name for c in self.checks) + ")"
        f = self.first_failure
        assert f is not None
        msg = f"fail: {f.name}"
        if f.witness:
            msg += f" at {f.witness}"
        return msg


def passed(name: str) -> Check:
    return Check(name, True)


def failed(name: str, witness: str) -> Check:
    return Check(name, False, witness)


def check(name: str, witness: str | None) -> Check:
    """The check name, passed when witness is None and failed with it otherwise."""
    return passed(name) if witness is None else failed(name, witness)


def until_failure(checks):
    """A verifier from a generator function of (name, witness) pairs: its
    Verdict holds the checks up to and including the first failure, and the
    generator is never resumed after it, so no later check is computed."""

    @wraps(checks)
    def verdict(*args, **kwargs) -> Verdict:
        out = []
        for name, witness in checks(*args, **kwargs):
            out.append(check(name, witness))
            if witness is not None:
                break
        return Verdict(tuple(out))

    return verdict

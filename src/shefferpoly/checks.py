"""The one verdict record of the verifier, and its one aggregate.

Every identity the engine checks, from one raising step to a whole suite
row, is a :class:`Check`.  Engine-level producers (``MixedFamily``'s
checks, ``commutator_check``, ``crofton_check``, ``cross_validate``)
return one ``Check`` per comparison; a suite row is :func:`first_failure`
over a filter of them.  Most failing records are never printed, so a
witness is rendered from its ``detail`` only when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable


@dataclass(frozen=True, eq=False)
class Check:
    """One verdict.  ``detail`` is the witness text, or a callable that
    renders it on the first read of ``witness``; ``n`` is the member degree
    (or test degree) an engine-level record was taken at."""

    suite: str
    name: str
    passed: bool
    detail: str | Callable[[], str] | None = field(default=None, repr=False)
    n: int | None = None

    @cached_property
    def witness(self) -> str | None:
        return self.detail() if callable(self.detail) else self.detail

    def _key(self) -> tuple:
        return (self.suite, self.name, self.passed, self.witness, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Check):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "pass": self.passed,
            "witness": self.witness,
        }


def compare(suite: str, name: str, got, want, n: int | None = None,
            form: str = "got {}; expected {}") -> Check:
    """The check got == want; on a failure ``form`` renders (got, want)."""
    ok = got == want
    return Check(suite, name, ok, None if ok else lambda: form.format(got, want), n)


def first_failure(suite: str, name: str, checks: Iterable[Check],
                  prefix: Callable[[Check], str] = lambda c: "") -> Check:
    """The row over ``checks``: it passes iff every check passes, and its
    witness is the first failing check's witness behind ``prefix(check)``.

    ``checks`` is consumed only up to its first failure, so a generator
    stops there.
    """
    bad = next((c for c in checks if not c.passed), None)
    if bad is None:
        return Check(suite, name, True)
    return Check(suite, name, False, lambda: prefix(bad) + bad.witness)

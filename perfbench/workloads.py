"""The benchmark's three workloads: seeded inputs, timed work, output checks.

Every workload is a closed loop with one client: each unit of work starts
only after the previous one has finished.  For each workload:

* ``make_inputs(seed)`` is the only place the seed is used.  It draws pair
  parameters from fixed menus of small rationals inside each builder's
  documented valid domain.
* ``run(inputs, laps)`` is the timed part.  It drives the work through the
  package's public functions and returns the raw outputs.  A unit that
  raises is recorded as its exception.  It appends to ``laps`` the wall
  time of each pair (of each suite for ``verify-all``), in a fixed order.
* ``check(inputs, outputs)`` runs after the timed interval.  It recomputes
  every output by a route the timed code does not take and returns
  ``(attempted, failed, first_error)``.
* ``render(outputs)`` gives the canonical text the output digest is taken
  over.

Workloads and why each is here:

* ``verify-all``: ``shefferpoly verify --suite all`` at order 12, the
  acceptance gate and the headline user path.  It leans on ``operators``,
  ``multipoly`` and the module caches.  The seed is not used.
* ``expand-catalog``: every catalog pair x kind {S, R} x r in {2, 3},
  members 0..16 at order 16.  Mostly ``Series`` products over ``MultiPoly``
  coefficients and ``compose``; ``operators`` is never called.
* ``resolve-deep``: every catalog pair resolved at order 32, then its plain
  Sheffer members 0..32.  Mostly scalar ``Fraction`` series, dominated by
  the Newton compositional inverse.  Not listed in ``BENCHMARK.json``: the
  run budget there fits two workloads long enough to be steady on a noisy
  machine.  Run it by name.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from shefferpoly import MixedFamily, MultiPoly, cli, get_pair, pair_names, sheffer_poly, suites
from shefferpoly.oracle import lagrange_inverse, oracle_series_product, rule_c0, rule_exp

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")

# Menus of small rationals inside each builder's valid domain: integer
# k >= 1 and nu != 0 for generalized-hermite, integer mu for peters (the
# constant term 2^mu must stay rational), a != 0 for poisson-charlier.
PARAM_MENUS: dict[str, dict[str, tuple[str, ...]]] = {
    "generalized-hermite": {"k": ("1", "2", "3"),
                            "nu": ("1", "2", "-1", "1/2", "-3/2", "3")},
    "laguerre": {"alpha": ("0", "1", "2", "-1/2", "1/2", "3/2")},
    "actuarial": {"beta": ("1", "2", "-1", "1/2", "3/2", "1/3")},
    "poisson-charlier": {"a": ("1", "2", "-1", "1/2", "3", "-2/3")},
    "peters": {"lambda": ("1", "2", "-1", "1/2", "3/2"),
               "mu": ("1", "2", "-1", "3")},
    "shively": {"a": ("1", "2", "0", "1/2", "-1/2", "3/2")},
}


def draw_params(seed: int) -> dict[str, dict[str, str]]:
    """One parameter set per parameterised pair, drawn from the menus."""
    rng = random.Random(seed)
    return {
        pair: {name: rng.choice(menu[name]) for name in sorted(menu)}
        for pair, menu in sorted(PARAM_MENUS.items())
    }


def _pairs(inputs: dict) -> list:
    params = inputs["params"]
    return [
        get_pair(name, {k: Fraction(v) for k, v in params.get(name, {}).items()} or None)
        for name in pair_names()
    ]


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- plain-list series arithmetic, sharing no code with the series engine ------


def _mul(a: list, b: list) -> list:
    """Product truncated to len(a) coefficients."""
    size = len(a)
    out = [Fraction(0)] * size
    for i, ai in enumerate(a):
        if ai:
            for j in range(size - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def _compose(outer: list, inner: list) -> list:
    """outer(inner) for inner[0] == 0, by Horner's rule."""
    out = [Fraction(0)] * len(inner)
    for c in reversed(outer[: len(inner)]):
        out = _mul(out, inner)
        out[0] += c
    return out


def _reciprocal(a: list) -> list:
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum(a[k] * out[n - k] for k in range(1, n + 1)) / a[0])
    return out


def independent_resolution(pair, order: int) -> tuple[list, list, list]:
    """(H, A, [A*H^k for k = 0..order]) from the builder's g and f alone:
    H by Lagrange inversion, A = 1/g(H) and the powers by list convolution."""
    built = pair.build(order)
    H = lagrange_inverse(built.f.coeffs, order)
    A = _reciprocal(_compose([Fraction(c) for c in built.g.coeffs], H))
    powers = [A]
    for _ in range(order):
        powers.append(_mul(powers[-1], H))
    return H, A, powers


def _member_from_powers(phi: list, powers: list, n: int, weight) -> MultiPoly:
    """weight * sum_k phi_k [t^n] (A H^k)."""
    out = MultiPoly.zero()
    for k in range(n + 1):
        c = powers[k][n]
        if c and phi[k]:
            out = out + phi[k] * c
    return out * weight


# -- verify-all ---------------------------------------------------------------------


class VerifyAll:
    name = "verify-all"
    order = 12
    # checks per suite at order 12; the total is the gate's 297
    expected = {"biorthogonality": 14, "crofton": 24, "heat": 16, "integral": 56,
                "inverse": 24, "monomiality": 56, "operational": 57, "oracle": 5,
                "reductions": 45}

    def make_inputs(self, seed: int) -> dict:
        return {"argv": ["verify", "--suite", "all", "--format", "json",
                         "--order", str(self.order)]}

    def run(self, inputs: dict, laps: list[float]):
        """One lap per suite, in the order the CLI runs them, then one for
        the rest of the CLI call."""
        originals = dict(suites.SUITES)

        def lapped(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    laps.append(time.perf_counter() - t0)
            return timed

        suites.SUITES.update({name: lapped(fn) for name, fn in originals.items()})
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(inputs["argv"])
        except Exception as exc:  # the unit failed; check() counts it
            return {"error": _error(exc)}
        finally:
            total = time.perf_counter() - t0
            suites.SUITES.update(originals)
            laps.append(total - sum(laps))
        return {"code": code, "text": buf.getvalue()}

    def render(self, outputs) -> str:
        return json.dumps(outputs, sort_keys=True)

    def check(self, inputs: dict, outputs) -> tuple[int, int, str | None]:
        attempted = sum(self.expected.values())
        if "error" in outputs:
            return attempted, attempted, outputs["error"]
        try:
            payload = json.loads(outputs["text"])
        except ValueError as exc:
            return attempted, attempted, f"unparsable verify output: {exc}"
        checks = payload.get("checks", [])
        counts: dict[str, int] = {}
        for c in checks:
            counts[c["suite"]] = counts.get(c["suite"], 0) + 1
        failing = [c for c in checks if c["pass"] is not True]
        # a missing or surplus check is a wrong unit as well
        miscount = sum(abs(counts.get(s, 0) - k) for s, k in self.expected.items())
        miscount += sum(k for s, k in counts.items() if s not in self.expected)
        failed = min(attempted, len(failing) + miscount)
        if outputs["code"] != (1 if failing else 0) or payload.get("passed") != (not failing):
            failed = max(failed, 1)
        error = None
        if failing:
            error = f"{failing[0]['suite']}: {failing[0]['name']}: {failing[0]['witness']}"
        elif failed:
            error = f"check counts {counts} != {self.expected}, exit {outputs['code']}"
        return attempted, failed, error


# -- expand-catalog -------------------------------------------------------------------


class ExpandCatalog:
    name = "expand-catalog"
    order = 16
    kinds = ("S", "R")
    rs = (2, 3)

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "order": self.order, "params": draw_params(seed)}

    def run(self, inputs: dict, laps: list[float]) -> list:
        order = inputs["order"]
        out = []
        for pair in _pairs(inputs):
            t0 = time.perf_counter()
            for kind in self.kinds:
                for r in self.rs:
                    fam = MixedFamily(pair, kind, r, order)
                    members = []
                    for n in range(order + 1):
                        try:
                            members.append(fam.member(n))
                        except Exception as exc:  # counted as a failed member
                            members.append(_error(exc))
                    out.append((fam.label, members))
            laps.append(time.perf_counter() - t0)
        return out

    def render(self, outputs) -> str:
        return "\n".join(f"{label} {n}: {m}" for label, members in outputs
                         for n, m in enumerate(members))

    @staticmethod
    def phi_rules(kind: str, r: int) -> list:
        """Coefficient rules of Phi(u): the base generating product in u."""
        if kind == "S":
            return [rule_c0(-_X, 2), rule_exp(_Y, 1), rule_exp(_Z, r)]
        return [rule_c0(_X, 1), rule_c0(-_Y, 1), rule_exp(_Z, r)]

    def check(self, inputs: dict, outputs) -> tuple[int, int, str | None]:
        order = inputs["order"]
        phis = {(k, r): oracle_series_product(self.phi_rules(k, r), order)
                for k in self.kinds for r in self.rs}
        expected_labels = []
        failed = 0
        first = None
        results = iter(outputs)
        for pair in _pairs(inputs):
            _, _, powers = independent_resolution(pair, order)
            for kind in self.kinds:
                for r in self.rs:
                    label = f"{pair.name}/{kind}/r={r}"
                    expected_labels.append(label)
                    got_label, members = next(results, (None, []))
                    for n in range(order + 1):
                        weight = math.factorial(n) ** (1 if kind == "S" else 2)
                        want = _member_from_powers(phis[kind, r], powers, n, weight)
                        got = members[n] if n < len(members) else None
                        if got_label != label or got != want:
                            failed += 1
                            first = first or f"{label} n={n}: got {got}; expected {want}"
        attempted = len(expected_labels) * (order + 1)
        return attempted, failed, first


# -- resolve-deep ---------------------------------------------------------------------


class ResolveDeep:
    name = "resolve-deep"
    order = 32

    def make_inputs(self, seed: int) -> dict:
        return {"seed": seed, "order": self.order, "params": draw_params(seed)}

    def run(self, inputs: dict, laps: list[float]) -> list:
        order = inputs["order"]
        out = []
        for pair in _pairs(inputs):
            t0 = time.perf_counter()
            try:
                res = pair.resolved(order)
            except Exception as exc:  # counted as a failed resolution
                res = _error(exc)
            members = []
            for n in range(order + 1):
                try:
                    members.append(sheffer_poly(pair, n, order))
                except Exception as exc:  # counted as a failed member
                    members.append(_error(exc))
            out.append((pair.name, res, members))
            laps.append(time.perf_counter() - t0)
        return out

    def render(self, outputs) -> str:
        lines = []
        for name, res, members in outputs:
            if isinstance(res, str):
                lines.append(f"{name} {res}")
            else:
                lines.append(f"{name} H {res.H}")
                lines.append(f"{name} A {res.A}")
            lines.extend(f"{name} {n}: {m}" for n, m in enumerate(members))
        return "\n".join(lines)

    def check(self, inputs: dict, outputs) -> tuple[int, int, str | None]:
        """Per pair one resolution unit (H and A against Lagrange inversion and
        against the catalog's closed forms, where stated) and one unit per
        member (against n! sum_k [t^n](A H^k) x^k / k!)."""
        order = inputs["order"]
        pairs = _pairs(inputs)
        attempted = len(pairs) * (order + 2)
        failed = 0
        first = None
        results = {name: (res, members) for name, res, members in outputs}
        for pair in pairs:
            res, members = results.get(pair.name, ("missing", []))
            H, A, powers = independent_resolution(pair, order)
            built = pair.build(order)
            wrong = []
            if isinstance(res, str):
                wrong.append(res)
            else:
                if list(res.H.coeffs) != H:
                    wrong.append("H != Lagrange inverse of f")
                if list(res.A.coeffs) != A:
                    wrong.append("A != 1/g(H)")
            if built.claimed_H is not None and list(built.claimed_H.coeffs) != H:
                wrong.append("claimed H != Lagrange inverse of f")
            if built.claimed_A is not None and list(built.claimed_A.coeffs) != A:
                wrong.append("claimed A != 1/g(H)")
            if wrong:
                failed += 1
                first = first or f"{pair.name}: {'; '.join(wrong)}"
            for n in range(order + 1):
                want = MultiPoly({(k, 0, 0): powers[k][n] * math.factorial(n) / math.factorial(k)
                                  for k in range(n + 1)})
                got = members[n] if n < len(members) else None
                if got != want:
                    failed += 1
                    first = first or f"{pair.name} s_{n}: got {got}; expected {want}"
        return attempted, failed, first


WORKLOADS = {w.name: w for w in (VerifyAll(), ExpandCatalog(), ResolveDeep())}

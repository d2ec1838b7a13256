"""Oracle independence: explicit sums, naive convolution, Lagrange
inversion, and the registered engine-vs-oracle suites."""

import math
from fractions import Fraction as F

import pytest

from shefferpoly import (
    MultiPoly,
    UnknownSuite,
    catalog,
    cross_validate,
    get_pair,
    lagrange_inverse,
    oracle_series_product,
)
from shefferpoly import mixed, oracle, suites
from shefferpoly.cli import main
from shefferpoly.operators import compose, inv_deriv, scale
from shefferpoly.oracle import (
    row_bell_type,
    row_chebyshev,
    row_gould_hopper,
    row_laguerre,
    row_laguerre_type,
    row_legendre_P,
    row_legendre_R,
    row_legendre_type,
    row_truncated_exponential,
    rule_c0,
    rule_exp,
    suite_names,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
ONE = MultiPoly.const(1)


def test_explicit_sum_gould_hopper():
    # row I
    assert row_gould_hopper(3, 2) == X ** 3 + 6 * X * Y
    assert row_gould_hopper(0, 2) == ONE


def test_explicit_sum_hermite():
    # row VIII, the Hermite H_n: row I at r = 2
    assert row_gould_hopper(2, 2) == X ** 2 + 2 * Y


def test_explicit_sum_all_rows_at_zero():
    of_n = (row_legendre_type, row_laguerre, row_legendre_R, row_legendre_P, row_bell_type)
    of_n_and_param = (row_gould_hopper, row_laguerre_type, row_chebyshev,
                      row_truncated_exponential)
    rows = {name for name in vars(oracle) if name.startswith("row_")}
    assert rows == {row.__name__ for row in of_n + of_n_and_param}
    for row in of_n:
        assert row(0) == ONE
    for row in of_n_and_param:
        assert row(0, 2) == ONE


def test_naive_convolution_single_factor():
    rule = rule_exp(Y, 1)
    coeffs = oracle_series_product([rule], 4)
    for k in range(5):
        assert coeffs[k] == (Y ** k) / math.factorial(k)


def test_naive_convolution_hand_case():
    coeffs = oracle_series_product([rule_exp(Y, 1), rule_exp(Z, 2)], 2)
    assert coeffs[0] == ONE
    assert coeffs[1] == Y
    assert coeffs[2] == Y * Y / 2 + Z


def test_naive_convolution_matches_legendre_S():
    from shefferpoly import legendre_S

    coeffs = oracle_series_product([rule_exp(Y, 1), rule_c0(-X, 2)], 6)
    for n in range(7):
        assert coeffs[n] * math.factorial(n) == legendre_S(n, 6)


def test_lagrange_inverse_log_series():
    # f = e^t - 1  ->  f^(-1) = log(1+t)
    f = [F(1, math.factorial(k)) for k in range(9)]
    f[0] = F(0)
    got = lagrange_inverse(f, 8)
    want = [F(0)] + [F((-1) ** (n + 1), n) for n in range(1, 9)]
    assert got == want


def test_newton_inverse_matches_lagrange_oracle():
    # order 1 takes no Newton step; most of these orders are not powers
    # of two, so the last step runs at a clipped working precision
    for pair in catalog() + [get_pair("identity")]:
        for order in list(range(1, 21)) + [32]:
            f = pair.build(order).f
            assert f.compositional_inverse().coeffs == \
                lagrange_inverse(f.coeffs, order), (pair.name, order)


def test_lagrange_inverse_rejects_non_delta():
    with pytest.raises(ValueError):
        lagrange_inverse([F(1), F(1)], 4)


def test_cross_validate_suites_all_pass():
    for name in suite_names():
        results = cross_validate(name, 8)
        bad = [r for r in results if not r.passed]
        assert not bad, f"{name}: {bad[0].name}"


def test_cross_validate_max_n_zero():
    results = cross_validate("ghp-vs-explicit", 0)
    assert results and all(r.passed for r in results)


def test_cross_validate_unknown_suite():
    with pytest.raises(UnknownSuite):
        cross_validate("nope", 3)


def test_printed_chebyshev_relation_fails_as_stated():
    # The circulated special-case table pairs "r = m-1, x=0, y->x, z->y"
    # with the ordinary-weight Chebyshev sum; those two columns disagree
    # already at n = 1 (exponential vs ordinary generating weight), which
    # is why the registered row IV check uses the Gamma-moment bridge.
    from shefferpoly import gould_hopper

    m = 2
    substitution_side = gould_hopper(1, m - 1, 4)   # = x + y
    printed_sum_side = row_chebyshev(1, m)          # = x
    assert substitution_side != printed_sum_side


def test_oracle_checks_the_registered_recipes(monkeypatch, capsys):
    # ex9 with the sign of D_x^(-1) flipped: y -> -D_x^(-1){1}, z -> y
    def flipped(fam, n):
        return fam.member(n).substitute(
            {"x": 0, "y": compose(scale(-1), inv_deriv("x")), "z": Y})

    monkeypatch.setitem(mixed.REDUCTIONS, "ex9",
                        mixed.REDUCTIONS["ex9"]._replace(specialize=flipped))
    failing = {c.name for c in suites.suite_reductions(8, 3) if not c.passed}
    assert failing == {"identity/ex9", "lower-factorial/ex9", "bernoulli2/ex9"}
    checks = cross_validate("leghpS-vs-table1", 4)
    failing_rows = {c.name.rsplit(" n=", 1)[0] for c in checks if not c.passed}
    assert failing_rows == {"S-kind base row III (r=2)", "S-kind base row III (r=3)",
                            "S-kind base row IX (r=2)"}
    assert main(["verify", "--suite", "oracle", "--format", "json"]) == 1
    assert '"pass": false' in capsys.readouterr().out

import math
from datetime import datetime
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoplens.ingest import Transactions, segment_customers
from shoplens.rfm import (LOG_BRANCH_TOL, BoxCoxParams, RfmAttributes, RfmWeights,
                          boxcox_lambda_mle, boxcox_transform,
                          compute_rfm_attributes, weighted_rfm_score)

from oracles import boxcox_grid_lambda, from_records, make_txn

AS_OF = datetime(2011, 12, 31)


def segments(txns) -> list:
    """The purchase summaries ``segment_customers`` makes of the records."""
    return segment_customers(from_records(Transactions, txns))


def exact_boxcox(value: float, lam: float) -> Fraction:
    """The transform of the float ``value`` to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(value)
        if abs(lam) < LOG_BRANCH_TOL:
            return Fraction(x.ln())
        return Fraction((x ** Decimal(lam) - 1) / Decimal(lam))


def rounding_bound(value: float, lam: float) -> float:
    """Twice a bound on |boxcox_transform(value) - exact_boxcox(value)|.

    The pow (or log) result is within one ulp, and the subtraction and the
    division each round by half an ulp. The pow error is divided by |lam|,
    so it can exceed one ulp of the output by far.
    """
    out = abs(boxcox_transform(value, BoxCoxParams(lam=lam)))
    if abs(lam) < LOG_BRANCH_TOL:
        return 2.0 ** -51 * out
    return 2.0 ** -51 * (value ** lam / abs(lam) + out)


class TestAttributes:
    def test_single_customer_degenerates_to_ones(self):
        txns = [make_txn(date="2011-06-01 00:00")]
        (a,) = compute_rfm_attributes(segments(txns), AS_OF)
        assert (a.recency, a.frequency, a.monetary) == (1.0, 1.0, 1.0)

    def test_dominating_customer_hits_the_endpoints(self):
        txns = [
            make_txn(customer_id="top", invoice_id="t1", date="2011-12-30 00:00", spend=50.0),
            make_txn(customer_id="top", invoice_id="t2", date="2011-12-01 00:00", spend=50.0),
            make_txn(customer_id="low", invoice_id="l1", date="2011-06-01 00:00", spend=10.0),
        ]
        low, top = compute_rfm_attributes(segments(txns), AS_OF)
        assert (top.recency, top.frequency, top.monetary) == (1.0, 1.0, 1.0)
        assert (low.recency, low.frequency, low.monetary) == (0.0, 0.0, 0.0)

    def test_five_customer_fixture_matches_hand_table(self):
        txns = [
            make_txn("C1", invoice_id="C1-1", date="2011-10-01 00:00", spend=25.0),
            make_txn("C1", invoice_id="C1-2", date="2011-12-21 00:00", spend=25.0),
            *[make_txn("C2", invoice_id=f"C2-{i}", date=d, spend=7.5)
              for i, d in enumerate(["2011-09-01 00:00", "2011-10-01 00:00",
                                     "2011-11-01 00:00", "2011-12-11 00:00"])],
            make_txn("C3", invoice_id="C3-1", date="2011-11-21 00:00", spend=10.0),
            *[make_txn("C4", invoice_id=f"C4-{i}", date=d, spend=18.0)
              for i, d in enumerate(["2011-08-01 00:00", "2011-09-01 00:00",
                                     "2011-10-01 00:00", "2011-11-01 00:00",
                                     "2011-12-26 00:00"])],
            *[make_txn("C5", invoice_id=f"C5-{i}", date=d, spend=s)
              for i, (d, s) in enumerate([("2011-07-01 00:00", 23.0),
                                          ("2011-09-01 00:00", 23.0),
                                          ("2011-12-06 00:00", 24.0)])],
        ]
        # spreadsheet values: days since last (10, 20, 40, 5, 25),
        # invoices (2, 4, 1, 5, 3), spend (50, 30, 10, 90, 70)
        expected = {
            "C1": (30 / 35, 0.25, 0.5),
            "C2": (20 / 35, 0.75, 0.25),
            "C3": (0.0, 0.0, 0.0),
            "C4": (1.0, 1.0, 1.0),
            "C5": (15 / 35, 0.5, 0.75),
        }
        for a in compute_rfm_attributes(segments(txns), AS_OF):
            r, f, m = expected[a.customer_id]
            assert a.recency == pytest.approx(r, abs=1e-12)
            assert a.frequency == pytest.approx(f, abs=1e-12)
            assert a.monetary == pytest.approx(m, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            compute_rfm_attributes(segments([]), AS_OF)

    def test_transaction_after_as_of(self):
        with pytest.raises(ValueError, match="after as_of"):
            compute_rfm_attributes(segments([make_txn(date="2012-01-05 00:00")]), AS_OF)

    def test_total_spend_that_overflows_names_the_customer(self):
        # Every line is finite; customer "1"'s total is not.
        txns = [make_txn(customer_id="0", spend=5.0),
                make_txn(customer_id="1", stock_code="A", spend=1.7e308),
                make_txn(customer_id="1", stock_code="B", spend=1.7e308),
                make_txn(customer_id="2", spend=3.0)]
        with pytest.raises(ValueError, match="customer 1 is not finite"):
            compute_rfm_attributes(segments(txns), AS_OF)


class TestWeightedScore:
    def test_all_ones_with_paper_weights(self):
        attrs = RfmAttributes("c", 1.0, 1.0, 1.0)
        assert weighted_rfm_score(attrs, RfmWeights(0.15, 0.15, 0.7)) == pytest.approx(1.0)

    def test_all_zeros(self):
        attrs = RfmAttributes("c", 0.0, 0.0, 0.0)
        assert weighted_rfm_score(attrs, RfmWeights(0.2, 0.3, 0.5)) == 0.0

    def test_hand_computed_value(self):
        attrs = RfmAttributes("c", 0.5, 0.2, 0.8)
        score = weighted_rfm_score(attrs, RfmWeights(0.15, 0.15, 0.7))
        assert score == pytest.approx(0.665, abs=1e-12)

    def test_invalid_weights(self):
        with pytest.raises(ValueError, match="sum to 1"):
            weighted_rfm_score(RfmAttributes("c", 0, 0, 0), RfmWeights(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="non-negative"):
            weighted_rfm_score(RfmAttributes("c", 0, 0, 0), RfmWeights(-0.2, 0.5, 0.7))

    @given(r=st.floats(0, 1), f=st.floats(0, 1), m=st.floats(0, 1))
    def test_score_stays_in_unit_interval(self, r, f, m):
        score = weighted_rfm_score(RfmAttributes("c", r, f, m),
                                   RfmWeights(0.15, 0.15, 0.7))
        assert 0.0 <= score <= 1.0

    def test_affine_in_each_attribute(self):
        w = RfmWeights(0.2, 0.3, 0.5)
        at = lambda r: weighted_rfm_score(RfmAttributes("c", r, 0.4, 0.6), w)
        # equal spacing in the attribute gives equal spacing in the score
        assert at(0.6) - at(0.4) == pytest.approx(at(0.4) - at(0.2), abs=1e-12)


class TestTransform:
    def test_log_branch_at_e(self):
        assert boxcox_transform(math.e, BoxCoxParams(lam=0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_like_branch(self):
        assert boxcox_transform(3.0, BoxCoxParams(lam=1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_square_branch(self):
        assert boxcox_transform(4.0, BoxCoxParams(lam=2.0)) == pytest.approx(7.5, abs=1e-12)

    def test_branch_values_exact_on_grid(self):
        values = np.linspace(0.1, 100, 57)
        for lam in (-2.0, -0.5, 0.5, 1.0, 3.0):
            got = np.array([boxcox_transform(v, BoxCoxParams(lam=lam)) for v in values])
            assert np.abs(got - (values ** lam - 1) / lam).max() < 1e-12
        got0 = np.array([boxcox_transform(v, BoxCoxParams(lam=0.0)) for v in values])
        assert np.abs(got0 - np.log(values)).max() < 1e-12

    def test_shift_applied_before_transform(self):
        assert boxcox_transform(0.0, BoxCoxParams(lam=1.0, shift=1.0)) == pytest.approx(0.0)

    def test_nonpositive_shifted_value(self):
        with pytest.raises(ValueError, match="positive"):
            boxcox_transform(-1.0, BoxCoxParams(lam=1.0))

    def test_near_zero_lambda_converges_to_log(self):
        values = np.linspace(0.1, 100, 200)
        branch = (values ** 1e-6 - 1.0) / 1e-6
        assert np.abs(branch - np.log(values)).max() < 1e-4
        # and the implementation uses the power branch at 1e-6
        got = np.array([boxcox_transform(v, BoxCoxParams(lam=1e-6)) for v in values])
        assert np.abs(got - branch).max() < 1e-12

    @settings(max_examples=200)
    @given(v1=st.floats(0.01, 1000), v2=st.floats(0.01, 1000),
           lam=st.floats(-5, 5))
    # Exact transforms 1.5e-18 apart, under half an ulp of their value ~0.2,
    # so both round to the same float.
    @example(v1=937.0, v2=938.0, lam=-5.0)
    # Exact transforms 3.4e-17 apart, more than one ulp of 0.2 (2.8e-17), yet
    # computed equal: the "- 1" rounds on the grid of 1.0, and dividing by 5
    # maps adjacent values of that grid less than one ulp of 0.2 apart.
    @example(v1=590.5880654477023, v2=592.0220993914978, lam=-5.0)
    def test_strictly_increasing_in_value(self, v1, v2, lam):
        """Non-decreasing for every draw; strictly increasing wherever the
        exact transforms differ by more than the two outputs' rounding."""
        lo, hi = sorted((v1, v2))
        params = BoxCoxParams(lam=lam)
        t_lo, t_hi = boxcox_transform(lo, params), boxcox_transform(hi, params)
        assert t_lo <= t_hi
        gap = exact_boxcox(hi, lam) - exact_boxcox(lo, lam)
        if gap > Fraction(rounding_bound(lo, lam) + rounding_bound(hi, lam)):
            assert t_lo < t_hi


class TestLambdaMle:
    def test_lognormal_recovers_zero(self):
        rng = np.random.default_rng(8)
        values = np.exp(rng.standard_normal(10000))
        params = boxcox_lambda_mle(values)
        assert abs(params.lam) < 0.15
        oracle = boxcox_grid_lambda(values + params.shift)
        assert abs(params.lam - oracle) <= 2e-3

    def test_normal_positive_recovers_one(self):
        rng = np.random.default_rng(9)
        values = rng.normal(20.0, 2.0, 10000)
        assert values.min() > 0
        params = boxcox_lambda_mle(values)
        assert abs(params.lam - 1.0) < 0.25
        oracle = boxcox_grid_lambda(values + params.shift)
        assert abs(params.lam - oracle) <= 2e-3

    def test_two_distinct_values_repeated(self):
        params = boxcox_lambda_mle([1.0, 2.0] * 5)
        assert -5.0 <= params.lam <= 5.0
        assert math.isfinite(params.lam)

    def test_identical_values_degenerate(self):
        with pytest.raises(ValueError, match="identical"):
            boxcox_lambda_mle([3.0, 3.0, 3.0])

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="at least 3"):
            boxcox_lambda_mle([1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            boxcox_lambda_mle([0.5, bad, 2.0, 3.0])

    def test_shift_makes_values_positive(self):
        params = boxcox_lambda_mle([0.0, 1.0, 2.0, 3.0])
        assert params.shift == pytest.approx(1e-6)

    def test_skewness_never_worsens_on_lognormal(self):
        rng = np.random.default_rng(10)
        values = np.exp(rng.standard_normal(4000))
        params = boxcox_lambda_mle(values)
        transformed = np.array([boxcox_transform(v, params) for v in values])

        def skew(a):
            a = a - a.mean()
            return float((a ** 3).mean() / (a ** 2).mean() ** 1.5)

        assert abs(skew(transformed)) <= abs(skew(values))

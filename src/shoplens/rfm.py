"""Customer value scoring: recency/frequency/monetary attributes, the
weighted RFM score, and its maximum-likelihood Box-Cox normalization.

Raw recency (days) and monetary value (currency) are not commensurable, so
each attribute is min-max normalized to [0, 1] over the scored population
before weighting; recency is flipped so that larger means more recent.
"""

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

# Offset that guarantees strictly positive inputs for the power transform.
POSITIVITY_EPS = 1e-6
# Below this magnitude the power-transform exponent is treated as zero.
LOG_BRANCH_TOL = 1e-8
# Bracket width at which the exponent search stops. It is far below the ~1e-8
# either side of the maximum over which the likelihood of the fixture's scores
# is flat to rounding; over (-5, 5) it takes 55 likelihood evaluations.
LAMBDA_WIDTH = 1e-10
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class RfmAttributes:
    customer_id: str
    recency: float
    frequency: float
    monetary: float


@dataclass(frozen=True)
class RfmWeights:
    w_recency: float = 0.15
    w_frequency: float = 0.15
    w_monetary: float = 0.7

    def validate(self) -> None:
        weights = (self.w_recency, self.w_frequency, self.w_monetary)
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")


@dataclass(frozen=True)
class RfmScore:
    customer_id: str
    gamma: float
    gamma_prime: float


@dataclass(frozen=True)
class BoxCoxParams:
    lam: float
    shift: float = 0.0


def _minmax(values: np.ndarray) -> np.ndarray:
    """Min-max to [0, 1]; a degenerate (constant) attribute maps to all 1.0."""
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def compute_rfm_attributes(segments, as_of: datetime) -> list[RfmAttributes]:
    """Per-customer normalized recency, frequency, and monetary attributes.

    recency = 1 - minmax(days since last purchase), frequency =
    minmax(distinct invoice count), monetary = minmax(total spend), all
    relative to the given ``ingest.CustomerSegment`` records, in their order.
    """
    if not segments:
        raise ValueError("no customers to score")
    for s in segments:
        if s.last_purchase > as_of:
            raise ValueError(f"customer {s.customer_id}'s purchase at {s.last_purchase} "
                             f"is after as_of {as_of}")
        if not math.isfinite(s.spend):
            raise ValueError(f"total spend of customer {s.customer_id} is not finite")

    days = np.array([(as_of - s.last_purchase).total_seconds() / 86400.0 for s in segments])
    recency = _minmax(-days)  # negate so larger = more recent
    frequency = _minmax(np.array([float(s.n_purchases) for s in segments]))
    monetary = _minmax(np.array([s.spend for s in segments], dtype=float))
    return [RfmAttributes(s.customer_id, float(r), float(f), float(m))
            for s, r, f, m in zip(segments, recency, frequency, monetary)]


def weighted_rfm_score(attrs: RfmAttributes, weights: RfmWeights) -> float:
    """Weighted sum of the three normalized attributes."""
    weights.validate()
    return (weights.w_recency * attrs.recency
            + weights.w_frequency * attrs.frequency
            + weights.w_monetary * attrs.monetary)


def boxcox_log_likelihood(values: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of the power transform at a given exponent."""
    values = np.asarray(values, dtype=float)
    if abs(lam) < LOG_BRANCH_TOL:
        transformed = np.log(values)
    else:
        transformed = (values ** lam - 1.0) / lam
    var = transformed.var()
    if var <= 0:
        return -np.inf
    n = len(values)
    return -0.5 * n * np.log(var) + (lam - 1.0) * np.log(values).sum()


def _golden_section_max(func, lo: float, hi: float) -> float:
    """Argmax of ``func`` over [lo, hi] by golden-section search (Kiefer 1953)
    to a bracket of ``LAMBDA_WIDTH``; a NaN value ranks below every number."""
    # A fixed step count: near the float spacing the bracket may stop shrinking.
    steps = math.ceil(math.log(max(hi - lo, LAMBDA_WIDTH) / LAMBDA_WIDTH, _GOLDEN))
    a, b = lo, hi
    c, d = b - (b - a) / _GOLDEN, a + (b - a) / _GOLDEN
    fc, fd = func(c), func(d)
    for _ in range(steps):
        if fc >= fd or math.isnan(fd):  # a maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - (b - a) / _GOLDEN
            fc = func(c)
        else:                           # a maximum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + (b - a) / _GOLDEN
            fd = func(d)
    return c if fc >= fd or math.isnan(fd) else d


def boxcox_lambda_mle(values, search: tuple[float, float] = (-5.0, 5.0)) -> BoxCoxParams:
    """Maximum-likelihood exponent for the power transform.

    Values are shifted by max(0, eps - min) first so every input is strictly
    positive; the exponent maximizes the profile log-likelihood over the
    search interval by golden-section search, to within ``LAMBDA_WIDTH``.
    """
    values = np.asarray(list(values), dtype=float)
    if len(values) < 3:
        raise ValueError(f"need at least 3 values, got {len(values)}")
    if not np.isfinite(values).all():
        raise ValueError(f"value {values[~np.isfinite(values)][0]} is not finite")
    if np.all(values == values[0]):
        raise ValueError("all values identical: transform likelihood is degenerate")
    lo, hi = (float(b) for b in search)
    if not math.isfinite(hi - lo):  # also true when a bound is not finite
        raise ValueError(f"search bounds {search} must be finite, and so must their distance")
    if lo > hi:
        raise ValueError(f"search lower bound {lo} exceeds the upper bound {hi}")
    shift = max(0.0, POSITIVITY_EPS - values.min())
    shifted = values + shift
    if np.any(shifted <= 0):
        raise ValueError("values not strictly positive after shift")

    lam = _golden_section_max(lambda lam: boxcox_log_likelihood(shifted, lam), lo, hi)
    return BoxCoxParams(lam=float(lam), shift=shift)


def boxcox_transform(value: float, params: BoxCoxParams) -> float:
    """Piecewise power transform of the shifted value.

    (x^lam - 1) / lam for lam != 0, log(x) at lam = 0; the log branch is
    taken whenever |lam| falls below the numerical-continuity threshold.
    """
    x = value + params.shift
    if x <= 0:
        raise ValueError(f"shifted value must be positive, got {x}")
    if abs(params.lam) < LOG_BRANCH_TOL:
        return float(np.log(x))
    return float((x ** params.lam - 1.0) / params.lam)


def score_customers(segments, as_of: datetime, weights: RfmWeights,
                    search: tuple[float, float] = (-5.0, 5.0),
                    ) -> tuple[list[RfmScore], BoxCoxParams]:
    """Full scoring pass over ``ingest.CustomerSegment`` records: attributes,
    weighted score, fitted transform."""
    attrs = compute_rfm_attributes(segments, as_of)
    gammas = np.array([weighted_rfm_score(a, weights) for a in attrs])
    params = boxcox_lambda_mle(gammas, search)
    scores = [RfmScore(a.customer_id, float(g), boxcox_transform(float(g), params))
              for a, g in zip(attrs, gammas)]
    return scores, params

"""Customer value scoring: recency/frequency/monetary attributes, the
weighted RFM score, and its Box-Cox normalization.

Raw recency (days) and monetary value (currency) are not commensurable, so
each attribute is min-max normalized to [0, 1] over the scored population
before weighting; recency is flipped so that larger means more recent.
"""

from dataclasses import dataclass
from datetime import datetime

import numpy as np

# Offset that guarantees strictly positive inputs for the power transform.
POSITIVITY_EPS = 1e-6
# Below this magnitude the power-transform exponent is treated as zero.
LOG_BRANCH_TOL = 1e-8


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


def compute_rfm_attributes(txns, as_of: datetime) -> list[RfmAttributes]:
    """Per-customer normalized recency, frequency, and monetary attributes.

    recency = 1 - minmax(days since last purchase), frequency =
    minmax(distinct invoice count), monetary = minmax(total spend), all
    relative to the customers present in the input.
    """
    if not txns:
        raise ValueError("no transactions to score")
    last_seen: dict[str, datetime] = {}
    invoices: dict[str, set[str]] = {}
    spend: dict[str, float] = {}
    for t in sorted(txns, key=lambda t: (t.customer_id, t.invoice_id, t.stock_code)):
        if t.invoice_date > as_of:
            raise ValueError(
                f"transaction at {t.invoice_date} is after as_of {as_of}")
        c = t.customer_id
        last_seen[c] = max(last_seen.get(c, t.invoice_date), t.invoice_date)
        invoices.setdefault(c, set()).add(t.invoice_id)
        spend[c] = spend.get(c, 0.0) + t.spend

    ids = sorted(last_seen)
    days = np.array([(as_of - last_seen[c]).total_seconds() / 86400.0 for c in ids])
    freq = np.array([float(len(invoices[c])) for c in ids])
    money = np.array([spend[c] for c in ids])

    recency = _minmax(-days)  # negate so larger = more recent
    frequency = _minmax(freq)
    monetary = _minmax(money)
    return [RfmAttributes(c, float(recency[i]), float(frequency[i]), float(monetary[i]))
            for i, c in enumerate(ids)]


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


def boxcox_lambda_mle(values, search: tuple[float, float] = (-5.0, 5.0)) -> BoxCoxParams:
    """Maximum-likelihood exponent for the power transform.

    Values are shifted by max(0, eps - min) first so every input is strictly
    positive; the exponent is found by bounded scalar maximization of the
    profile log-likelihood over the search interval.
    """
    # Imported here: scipy.optimize is most of the package's import time.
    from scipy.optimize import minimize_scalar

    values = np.asarray(list(values), dtype=float)
    if len(values) < 3:
        raise ValueError(f"need at least 3 values, got {len(values)}")
    if np.all(values == values[0]):
        raise ValueError("all values identical: transform likelihood is degenerate")
    shift = max(0.0, POSITIVITY_EPS - values.min())
    shifted = values + shift
    if np.any(shifted <= 0):
        raise ValueError("values not strictly positive after shift")

    result = minimize_scalar(
        lambda lam: -boxcox_log_likelihood(shifted, lam),
        bounds=search, method="bounded", options={"xatol": 1e-6})
    return BoxCoxParams(lam=float(result.x), shift=shift)


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


def score_customers(txns, as_of: datetime, weights: RfmWeights,
                    search: tuple[float, float] = (-5.0, 5.0),
                    ) -> tuple[list[RfmScore], BoxCoxParams]:
    """Full scoring pass: attributes, weighted score, fitted transform."""
    attrs = compute_rfm_attributes(txns, as_of)
    gammas = np.array([weighted_rfm_score(a, weights) for a in attrs])
    params = boxcox_lambda_mle(gammas, search)
    scores = [RfmScore(a.customer_id, float(g), boxcox_transform(float(g), params))
              for a, g in zip(attrs, gammas)]
    return scores, params

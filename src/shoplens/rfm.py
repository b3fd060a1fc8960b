"""Customer value scoring: recency/frequency/monetary attributes, the
weighted RFM score, and its Box-Cox normalization.

Raw recency (days) and monetary value (currency) are not commensurable, so
each attribute is min-max normalized to [0, 1] over the scored population
before weighting; recency is flipped so that larger means more recent.
"""

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .ingest import Transactions, _runs

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


def compute_rfm_attributes(txns: Transactions, as_of: datetime) -> list[RfmAttributes]:
    """Per-customer normalized recency, frequency, and monetary attributes.

    recency = 1 - minmax(days since last purchase), frequency =
    minmax(distinct invoice count), monetary = minmax(total spend), all
    relative to the customers present in the input. Spend is summed in
    (customer, invoice, stock code) order, ties in table order.
    """
    if len(txns) == 0:
        raise ValueError("no transactions to score")
    customer, invoice, dates = txns.customer_id, txns.invoice_id, txns.invoice_date
    order = np.lexsort((txns.stock_code.codes, invoice.codes, customer.codes))
    date_codes = dates.codes[order]
    late = np.array([d > as_of for d in dates.values], dtype=bool)[date_codes]
    if late.any():
        raise ValueError(
            f"transaction at {dates.values[date_codes[late.argmax()]]} is after as_of {as_of}")

    who = customer.codes[order]
    starts, group = _runs(who)
    last_seen = np.maximum.reduceat(date_codes, starts)  # date codes order like dates
    n_invoices = len(invoice.values)
    owner = np.unique(who * n_invoices + invoice.codes[order]) // n_invoices
    invoice_starts, _ = _runs(owner)

    ids = [customer.values[k] for k in who[starts].tolist()]
    days = np.array([(as_of - dates.values[k]).total_seconds() / 86400.0
                     for k in last_seen.tolist()])
    freq = np.diff(invoice_starts, append=len(owner)).astype(float)
    money = np.bincount(group, weights=txns.spend[order])  # adds in order

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


def _minimize_bounded(func, bounds, xatol=1e-5, maxiter=500):
    """Bounded Brent minimization of ``func`` over ``bounds``; the argmin.

    A port of ``_minimize_scalar_bounded`` from ``scipy.optimize._optimize``
    (SciPy 1.17.1), the method behind ``minimize_scalar(method="bounded")``,
    without its printing and result object. Its statements, their order and
    its numpy calls are kept, so it returns the same float bit for bit, on
    the NaN and inf paths too, and the rfm stage need not import
    ``scipy.optimize``. That code carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
    """
    maxfun = maxiter
    if len(bounds) != 2:
        raise ValueError('bounds must have two elements.')
    x1, x2 = bounds

    if not (np.size(x1) == 1 and np.isfinite(x1)
            and np.size(x2) == 1 and np.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")

    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if ((np.abs(p) < np.abs(0.5*q*r)) and (p > q*(a - xf)) and
                    (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:      # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean*e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return xf


def boxcox_lambda_mle(values, search: tuple[float, float] = (-5.0, 5.0)) -> BoxCoxParams:
    """Maximum-likelihood exponent for the power transform.

    Values are shifted by max(0, eps - min) first so every input is strictly
    positive; the exponent is found by bounded scalar maximization (Brent's
    method, as ``scipy.optimize.minimize_scalar(method="bounded")`` runs it)
    of the profile log-likelihood over the search interval.
    """
    values = np.asarray(list(values), dtype=float)
    if len(values) < 3:
        raise ValueError(f"need at least 3 values, got {len(values)}")
    if np.all(values == values[0]):
        raise ValueError("all values identical: transform likelihood is degenerate")
    shift = max(0.0, POSITIVITY_EPS - values.min())
    shifted = values + shift
    if np.any(shifted <= 0):
        raise ValueError("values not strictly positive after shift")

    lam = _minimize_bounded(lambda lam: -boxcox_log_likelihood(shifted, lam),
                            search, xatol=1e-6)
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


def score_customers(txns: Transactions, as_of: datetime, weights: RfmWeights,
                    search: tuple[float, float] = (-5.0, 5.0),
                    ) -> tuple[list[RfmScore], BoxCoxParams]:
    """Full scoring pass: attributes, weighted score, fitted transform."""
    attrs = compute_rfm_attributes(txns, as_of)
    gammas = np.array([weighted_rfm_score(a, weights) for a in attrs])
    params = boxcox_lambda_mle(gammas, search)
    scores = [RfmScore(a.customer_id, float(g), boxcox_transform(float(g), params))
              for a, g in zip(attrs, gammas)]
    return scores, params

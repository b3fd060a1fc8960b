"""Independent reference implementations used to verify the package.

Everything here is written from first principles against the same problem
statements as the library, deliberately using different algorithms (proximal
gradient instead of coordinate descent, a threshold-sweep over the complete
reachability graph instead of an MST walk, a brute-force likelihood grid
instead of bracketed optimization). Nothing imports the code paths it
checks. Some references are exceptions by design, because the library must
match them bit for bit, within a documented rounding drift, or at least as
well: the full-matrix distance layer (``full_*``), the n x n reference for
the library's row-block core distances and row-by-row Prim tree, whose
``full_pairwise_distances`` keeps the reference distance expression that
the library's column-wise kernel reproduces; ``reference_fit_lasso``, the
plain cyclic coordinate descent whose objective the library's exact path
must match or beat, and whose zero pattern it shares where the fit is
unique or its ties are between identical columns;
``reference_drop_experiment``, the per-step lstsq refits whose drop order,
fallback steps and holdout MSEs the library's inverse-Gram refits
reproduce within rounding; the NMF layer (``reference_fit_nmf`` and its mask and imputation helpers), the residual-form W and H updates
that the library's Gram-form sweep reproduces within rounding, with
``reference_grid_search``, the serial cell loop that the library may run in
worker processes. It shares only the factor initialization with the
library. And the per-record ingest and RFM loops (``reference_parse_rows``
to ``reference_compute_rfm_attributes``), which the library's column tables
reproduce; they share ``unsafe_cell``/``_minmax`` with the library, and the
incidence-matrix oracle builds its CSR result from an entry dict with
``conftest.purchase_matrix``.

The record view of the ingest tables (``InvoiceLine``, ``CleanedTransaction``,
``cell``, ``records``, ``from_records``, ``make_line``, ``make_txn``) and the two
objective helpers (``lasso_objective``, ``objective_value``) also live here:
only tests read a table row by row or score a fit from outside the solver.
"""

import itertools
from dataclasses import dataclass, fields
from datetime import datetime

import numpy as np

from shoplens._fmt import unsafe_cell
from shoplens.ingest import (Coded, CustomerSegment, InvoiceLines, PurchaseMatrix,
                             RejectedRow, Segment, Transactions)
from shoplens.lasso import DesignMatrix, DropExperimentCurve, LassoModel
from shoplens.nmf import Factorization, HoldoutMask, NmfConfig, _init_factors
from shoplens.rfm import RfmAttributes, _minmax

from conftest import purchase_matrix


# ------------------------------------------------------------ lasso ------

def lasso_objective(x: np.ndarray, y: np.ndarray, intercept: float,
                    beta: np.ndarray, alpha: float) -> float:
    n = x.shape[0]
    r = y - intercept - x @ beta
    return float(r @ r / (2 * n) + alpha * np.abs(beta).sum())


def projected_gradient_lasso(x, y, alpha, tol=1e-10, max_iter=500_000):
    """ISTA on (1/(2n))||y - b0 - X.b||^2 + alpha*||b||_1, b0 = mean(y)."""
    x = np.asarray(x, dtype=float)
    yc = np.asarray(y, dtype=float) - np.mean(y)
    n, p = x.shape
    gram = x.T @ x / n
    lip = float(np.linalg.eigvalsh(gram).max())
    step = 1.0 / lip
    beta = np.zeros(p)
    for _ in range(max_iter):
        grad = gram @ beta - x.T @ yc / n
        z = beta - step * grad
        new = np.sign(z) * np.maximum(np.abs(z) - step * alpha, 0.0)
        if np.abs(new - beta).max() < tol:
            beta = new
            break
        beta = new
    return float(np.mean(y)), beta


def _reference_soft_threshold(z: float, a: float) -> float:
    if z > a:
        return z - a
    if z < -a:
        return z + a
    return 0.0


def reference_fit_lasso(design: DesignMatrix, alpha: float, tol: float = 1e-7,
                        max_iter: int = 10000, rows: np.ndarray | None = None,
                        warm_start: np.ndarray | None = None) -> LassoModel:
    """Cyclic coordinate descent with exact soft-threshold updates, visiting
    every coordinate of every sweep; the path that ``fit_lasso`` follows
    must end at an objective no higher than this.

    Sweeps alternate between the full coordinate set and the current active
    set; convergence is a full sweep whose largest coefficient change falls
    below tol. Hitting max_iter is reported via ``converged``, not
    raised; ``n_iter`` counts sweeps. ``rows`` restricts the fit to a row
    subset (as a cross-validation fold does); ``warm_start`` seeds the
    coefficients.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x, y = design.x, design.y
    if rows is not None:
        x, y = x[np.asarray(rows)], y[np.asarray(rows)]
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in design")
    x = np.asfortranarray(x)
    n, p = x.shape

    intercept = float(y.mean())
    col_sq = np.einsum("ij,ij->j", x, x) / n
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=float)
    r = y - intercept - x @ beta

    def sweep(indices) -> float:
        max_delta = 0.0
        for j in indices:
            if col_sq[j] == 0.0:
                continue
            old = beta[j]
            rho = x[:, j] @ r / n + col_sq[j] * old
            new = _reference_soft_threshold(rho, alpha) / col_sq[j]
            if new != old:
                r[:] -= x[:, j] * (new - old)
                beta[j] = new
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
        return max_delta

    n_iter = 0
    converged = False
    while n_iter < max_iter:
        n_iter += 1
        if sweep(range(p)) < tol:
            converged = True
            break
        active = np.flatnonzero(beta)
        while active.size and n_iter < max_iter:
            n_iter += 1
            if sweep(active) < tol:
                break

    return LassoModel(alpha=float(alpha), intercept=intercept, beta=beta,
                      col_ids=list(design.col_ids), n_iter=n_iter, converged=converged)


def reference_drop_experiment(training: DesignMatrix, holdout: DesignMatrix,
                              model: LassoModel) -> DropExperimentCurve:
    """The drop experiment with every refit solved from its own columns by
    ``np.linalg.lstsq``, and by a 1e-8 ridge on the slopes when lstsq finds
    the refit rank-deficient; ``drop_experiment`` must give the same drop
    order and fallback steps, and the same holdout MSEs within rounding."""
    support = model.support()
    col_ids = training.col_ids
    survivors = list(support)
    points, dropped, fallback_steps = [], [], []
    step = 0
    while True:
        x = training.x[:, survivors]
        a = np.column_stack([np.ones(len(training.y)), x])
        sol, _, rank, _ = np.linalg.lstsq(a, training.y, rcond=None)
        if rank < a.shape[1]:
            fallback_steps.append(step)
            g = a.T @ a + 1e-8 * np.diag([0.0] + [1.0] * len(survivors))
            sol = np.linalg.solve(g, a.T @ training.y)
        intercept, coefs = float(sol[0]), sol[1:]
        pred = intercept + holdout.x[:, survivors] @ coefs
        points.append((len(survivors), float(np.mean((holdout.y - pred) ** 2))))
        if not survivors:
            break
        min_abs = np.abs(coefs).min()
        tied = [j for j, c in zip(survivors, coefs) if abs(c) == min_abs]
        victim = max(tied, key=lambda j: col_ids[j])
        dropped.append(col_ids[victim])
        survivors.remove(victim)
        step += 1
    return DropExperimentCurve(points=points, support=[col_ids[j] for j in support],
                               dropped=dropped,
                               betas={col_ids[j]: float(model.beta[j]) for j in support},
                               ridge_fallback_steps=fallback_steps)


def ols_holdout_mse(x_train, y_train, x_hold, y_hold):
    """Normal-equations OLS (pseudo-inverse) holdout MSE."""
    a = np.column_stack([np.ones(len(y_train)), x_train])
    sol = np.linalg.pinv(a) @ y_train
    pred = np.column_stack([np.ones(len(y_hold)), x_hold]) @ sol
    return float(np.mean((y_hold - pred) ** 2))


# ------------------------------------------------------------ nmf ------
# Masked HALS with separate W-column and H-row updates, the holdout mask and
# the per-pair imputation score; ``fit_nmf``, ``make_holdout_mask`` and
# ``imputation_mse`` must match them bit for bit.

def reference_holdout_mask(p_prime, fraction: float = 1.0 / 3.0,
                           seed: int = 0) -> HoldoutMask:
    """Seeded uniform sample of the stored (positive) entries.

    Structural zeros are absences, not observations, so they are never held
    out; predicting them would swamp the imputation error.
    """
    dense = np.asarray(p_prime, dtype=float)
    positions = [(int(i), int(j)) for i, j in zip(*np.nonzero(dense > 0))]
    positions.sort()
    if not positions:
        raise ValueError("matrix has no stored entries to hold out")
    rng = np.random.default_rng(seed)
    count = max(1, round(fraction * len(positions)))
    chosen = rng.choice(len(positions), size=count, replace=False)
    held = tuple(positions[i] for i in sorted(chosen))
    return HoldoutMask(held_out=held)


def reference_weight_matrix(shape: tuple[int, int],
                            mask: HoldoutMask | None) -> np.ndarray | None:
    if mask is None:
        return None
    m = np.ones(shape)
    for i, j in mask.held_out:
        m[i, j] = 0.0
    return m


def objective_value(p_prime, f: Factorization, cfg: NmfConfig,
                    mask: HoldoutMask | None = None) -> float:
    """Full regularized objective; with a mask, held-out residuals weigh 0."""
    dense = np.asarray(p_prime, dtype=float)
    resid = dense - f.w @ f.h
    if mask is not None:
        resid *= reference_weight_matrix(dense.shape, mask)
    l1_reg = cfg.alpha_m * cfg.l1_ratio
    l2_reg = cfg.alpha_m * (1.0 - cfg.l1_ratio)
    return float(0.5 * (resid ** 2).sum()
                 + l1_reg * (np.abs(f.w).sum() + np.abs(f.h).sum())
                 + 0.5 * l2_reg * ((f.w ** 2).sum() + (f.h ** 2).sum()))


def reference_fit_nmf(p_prime, cfg: NmfConfig,
                      mask: HoldoutMask | None = None) -> Factorization:
    """Alternating exact column/row coordinate updates (HALS).

    Each sweep updates every column of W, then every row of H, by the exact
    minimizer of the (masked) objective with everything else fixed, so the
    objective trace never increases. Stops when the per-iteration objective
    decrease relative to the starting objective falls below cfg.tol.
    """
    dense = np.asarray(p_prime, dtype=float)
    if np.any(dense < 0):
        raise ValueError("input matrix must be non-negative")
    n, m = dense.shape
    cfg.validate(n, m)

    weights = reference_weight_matrix(dense.shape, mask)
    # Masked entries never influence the fit: zero them out of the data too.
    data = dense if weights is None else dense * weights

    w, h = _init_factors(data, cfg)
    l1_reg = cfg.alpha_m * cfg.l1_ratio
    l2_reg = cfg.alpha_m * (1.0 - cfg.l1_ratio)

    def regularizers() -> float:
        return (l1_reg * (np.abs(w).sum() + np.abs(h).sum())
                + 0.5 * l2_reg * ((w ** 2).sum() + (h ** 2).sum()))

    def fresh_residual() -> np.ndarray:
        r = data - w @ h
        if weights is not None:
            r *= weights
        return r

    resid = fresh_residual()
    trace = [float(0.5 * (resid ** 2).sum() + regularizers())]
    converged = False
    n_iter = 0
    for n_iter in range(1, cfg.max_iter + 1):
        # W column sweep: for component t, the subproblem is separable by row
        for t in range(cfg.k):
            ht = h[t]
            if weights is None:
                denom = float(ht @ ht) + l2_reg
                if denom == 0.0:
                    new = np.zeros(n)
                else:
                    numer = resid @ ht + w[:, t] * (ht @ ht) - l1_reg
                    new = np.maximum(numer, 0.0) / denom
            else:
                wh2 = weights @ (ht * ht)
                denom = wh2 + l2_reg
                numer = resid @ ht + w[:, t] * wh2 - l1_reg
                new = np.where(denom > 0, np.maximum(numer, 0.0)
                               / np.where(denom > 0, denom, 1.0), 0.0)
            delta = new - w[:, t]
            if np.any(delta):
                outer = np.outer(delta, ht)
                if weights is not None:
                    outer *= weights
                resid -= outer
                w[:, t] = new
        # H row sweep, symmetric
        for t in range(cfg.k):
            wt = w[:, t]
            if weights is None:
                denom = float(wt @ wt) + l2_reg
                if denom == 0.0:
                    new = np.zeros(m)
                else:
                    numer = wt @ resid + (wt @ wt) * h[t] - l1_reg
                    new = np.maximum(numer, 0.0) / denom
            else:
                w2m = (wt * wt) @ weights
                denom = w2m + l2_reg
                numer = wt @ resid + h[t] * w2m - l1_reg
                new = np.where(denom > 0, np.maximum(numer, 0.0)
                               / np.where(denom > 0, denom, 1.0), 0.0)
            delta = new - h[t]
            if np.any(delta):
                outer = np.outer(wt, delta)
                if weights is not None:
                    outer *= weights
                resid -= outer
                h[t] = new

        resid = fresh_residual()  # drop accumulated rounding before scoring
        trace.append(float(0.5 * (resid ** 2).sum() + regularizers()))
        scale = max(abs(trace[0]), np.finfo(float).tiny)
        if (trace[-2] - trace[-1]) / scale < cfg.tol:
            converged = True
            break

    return Factorization(w=w, h=h, objective_trace=trace, converged=converged,
                         n_iter=n_iter)


def reference_imputation_mse(p_prime, f: Factorization, mask: HoldoutMask) -> float:
    """Mean squared prediction error over the held-out positions."""
    if not mask.held_out:
        raise ValueError("empty holdout mask")
    dense = np.asarray(p_prime, dtype=float)
    recon = f.w @ f.h
    errs = [(dense[i, j] - recon[i, j]) ** 2 for i, j in mask.held_out]
    return float(np.mean(errs))


def reference_grid_search(p_prime, k_range, alpha_grid, l1_grid, seed: int = 0,
                          tol: float = 1e-6, max_iter: int = 500,
                          init: str = "random_uniform",
                          holdout_fraction: float = 1.0 / 3.0):
    """Every grid cell fitted in turn, in the library's scan order.

    Returns the table rows (k, alpha_m, l1_ratio, imputation MSE or nan for
    a failed cell) and the (n_iter, converged) of every cell that fitted.
    """
    dense = np.asarray(p_prime, dtype=float)
    mask = reference_holdout_mask(dense, fraction=holdout_fraction, seed=seed)
    table, fits = [], []
    for k, alpha_m, l1_ratio in itertools.product(
            sorted(set(int(k) for k in k_range)),
            sorted(set(float(a) for a in alpha_grid), reverse=True),
            sorted(set(float(r) for r in l1_grid), reverse=True)):
        cfg = NmfConfig(k=k, alpha_m=alpha_m, l1_ratio=l1_ratio, tol=tol,
                        max_iter=max_iter, seed=seed, init=init)
        try:
            f = reference_fit_nmf(dense, cfg, mask=mask)
        except (ValueError, np.linalg.LinAlgError):
            table.append((k, alpha_m, l1_ratio, float("nan")))
            continue
        table.append((k, alpha_m, l1_ratio, reference_imputation_mse(dense, f, mask)))
        fits.append((f.n_iter, f.converged))
    return table, fits


# ------------------------------------------------------- record view -----
# A row of an ingest table as a frozen record, and a table built from records.

@dataclass(frozen=True)
class InvoiceLine:
    invoice_id: str
    stock_code: str
    description: str
    quantity: int
    invoice_date: datetime
    unit_price: float
    customer_id: str | None
    country: str


@dataclass(frozen=True)
class CleanedTransaction:
    customer_id: str
    stock_code: str
    invoice_id: str
    invoice_date: datetime
    spend: float
    quantity: int = 1


_RECORD_TYPES = {InvoiceLines: InvoiceLine, Transactions: CleanedTransaction}
_NUMBER_DTYPES = {"quantity": np.int64, "unit_price": np.float64, "spend": np.float64}


def cell(column, i: int):
    """Row i of a table column: a ``Coded`` row's value (None for code -1),
    or a number as a Python scalar."""
    if isinstance(column, Coded):
        code = column.codes[i]
        return None if code < 0 else column.values[code]
    return column[i].item()


def records(table) -> list:
    """Every row of an ``InvoiceLines`` or ``Transactions`` table as its record."""
    row_type = _RECORD_TYPES[type(table)]
    columns = [getattr(table, f.name) for f in fields(table)]
    return [row_type(*(cell(c, i) for c in columns)) for i in range(len(table))]


def from_records(table_type, rows):
    """The ``table_type`` table holding the given records, in order."""
    rows = list(rows)
    return table_type(*(
        np.array([getattr(r, f.name) for r in rows], dtype=_NUMBER_DTYPES[f.name])
        if f.name in _NUMBER_DTYPES else Coded.encode(getattr(r, f.name) for r in rows)
        for f in fields(table_type)))


def make_line(invoice_id="1001", stock_code="SKU1", quantity=1,
              date="2011-06-01 10:00", unit_price=2.0, customer_id="C1",
              description="THING", country="United Kingdom") -> InvoiceLine:
    return InvoiceLine(invoice_id=invoice_id, stock_code=stock_code,
                       description=description, quantity=quantity,
                       invoice_date=datetime.fromisoformat(date),
                       unit_price=unit_price, customer_id=customer_id,
                       country=country)


def make_txn(customer_id="C1", stock_code="SKU1", invoice_id="1001",
             date="2011-06-01 10:00", spend=2.0, quantity=1) -> CleanedTransaction:
    return CleanedTransaction(customer_id=customer_id, stock_code=stock_code,
                              invoice_id=invoice_id,
                              invoice_date=datetime.fromisoformat(date),
                              spend=spend, quantity=quantity)


# -------------------------------------------------------- ingest/rfm -----
# The per-record ingest and RFM code the column tables replaced, kept
# verbatim apart from the names: the tables must reproduce its records,
# rejects, segments, matrix entries and attributes bit for bit.

def reference_parse_date(raw: str, formats: tuple[str, ...]) -> datetime | None:
    for fmt in formats:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            pass
    return None


def reference_parse_rows(reader, header: list[str], schema: dict[str, str],
                date_formats: tuple[str, ...],
                ) -> tuple[list[InvoiceLine], list[RejectedRow]]:
    """Type the data rows of an invoice CSV as they are read.

    Rows are read the way ``csv.DictReader`` reads them: blank lines are
    skipped and not numbered, a repeated header name takes the last
    matching field, a short row reads its missing fields as "", and a long
    row keeps its extra fields under the key None of the reject record.
    """
    width = len(header)
    at = {name: i for i, name in enumerate(header)}
    (i_invoice, i_stock, i_description, i_quantity, i_date, i_price,
     i_customer, i_country) = (at[schema[key]] for key in (
        "invoice_id", "stock_code", "description", "quantity",
        "invoice_date", "unit_price", "customer_id", "country"))

    lines: list[InvoiceLine] = []
    rejects: list[RejectedRow] = []
    dates: dict[str, datetime | None] = {}  # many lines share one invoice stamp
    for idx, row in enumerate(filter(None, reader), start=2):  # header is line 1
        if len(row) < width:
            row += [""] * (width - len(row))

        def reject(column: str, reason: str) -> None:
            raw = dict(zip(header, row))
            if len(row) > width:
                raw[None] = row[width:]
            rejects.append(RejectedRow(idx, column, reason, raw))

        invoice_id = row[i_invoice].strip()
        if not invoice_id:
            reject(schema["invoice_id"], "empty invoice id")
            continue
        if unsafe_cell(invoice_id):
            reject(schema["invoice_id"],
                   f"invoice id {invoice_id!r} contains a delimiter or newline")
            continue
        stock_code = row[i_stock].strip()
        if not stock_code:
            reject(schema["stock_code"], "empty stock code")
            continue
        if unsafe_cell(stock_code):
            reject(schema["stock_code"],
                   f"stock code {stock_code!r} contains a delimiter or newline")
            continue

        raw_qty = row[i_quantity].strip()
        try:
            quantity = int(raw_qty)
        except ValueError:
            reject(schema["quantity"], f"non-integer quantity {raw_qty!r}")
            continue

        raw_price = row[i_price].strip()
        try:
            unit_price = float(raw_price)
        except ValueError:
            reject(schema["unit_price"], f"non-numeric unit price {raw_price!r}")
            continue

        raw_date = row[i_date].strip()
        if raw_date not in dates:
            dates[raw_date] = reference_parse_date(raw_date, date_formats)
        invoice_date = dates[raw_date]
        if invoice_date is None:
            reject(schema["invoice_date"], f"unparseable date {raw_date!r}")
            continue

        customer_id = row[i_customer].strip() or None
        if customer_id is not None and unsafe_cell(customer_id):
            reject(schema["customer_id"],
                   f"customer id {customer_id!r} contains a delimiter or newline")
            continue
        lines.append(InvoiceLine(
            invoice_id=invoice_id,
            stock_code=stock_code,
            description=row[i_description].strip(),
            quantity=quantity,
            invoice_date=invoice_date,
            unit_price=unit_price,
            customer_id=customer_id,
            country=row[i_country].strip(),
        ))
    return lines, rejects


def reference_clean_transactions(lines, cancellation_prefix: str = "C",
                                 ) -> list[CleanedTransaction]:
    """Filter raw lines down to usable transactions.

    Drops anonymous lines, cancellation invoices, and non-positive
    quantities or prices; never raises. Spend is quantity x unit price.
    """
    out = []
    for line in lines:
        if line.customer_id is None:
            continue
        if cancellation_prefix and line.invoice_id.startswith(cancellation_prefix):
            continue
        if line.quantity <= 0 or line.unit_price <= 0:
            continue
        out.append(CleanedTransaction(
            customer_id=line.customer_id,
            stock_code=line.stock_code,
            invoice_id=line.invoice_id,
            invoice_date=line.invoice_date,
            spend=line.quantity * line.unit_price,
            quantity=line.quantity,
        ))
    return out


def reference_segment_customers(txns, frequent_min_purchases: int = 5,
                                wholesale_quantity_threshold: int = 1000,
                                ) -> list[CustomerSegment]:
    """Partition registered customers into Wholesale / Frequent / Infrequent.

    Wholesale is flagged first: any single invoice totaling more than
    ``wholesale_quantity_threshold`` units. Remaining customers are Frequent
    iff they have at least ``frequent_min_purchases`` distinct invoices.
    Every customer present in the transactions gets exactly one segment,
    with its latest invoice date and its spend summed in sorted record order.
    """
    invoices: dict[str, set[str]] = {}
    invoice_units: dict[tuple[str, str], int] = {}
    last_seen: dict[str, datetime] = {}
    spend: dict[str, float] = {}
    for t in sorted(txns, key=lambda t: (t.customer_id, t.invoice_id, t.stock_code)):
        invoices.setdefault(t.customer_id, set()).add(t.invoice_id)
        key = (t.customer_id, t.invoice_id)
        invoice_units[key] = invoice_units.get(key, 0) + t.quantity
        last_seen[t.customer_id] = max(last_seen.get(t.customer_id, t.invoice_date),
                                       t.invoice_date)
        spend[t.customer_id] = spend.get(t.customer_id, 0.0) + t.spend

    out = []
    for customer_id in sorted(invoices):
        n_purchases = len(invoices[customer_id])
        biggest = max(invoice_units[(customer_id, inv)] for inv in invoices[customer_id])
        if biggest > wholesale_quantity_threshold:
            segment = Segment.WHOLESALE
        elif n_purchases >= frequent_min_purchases:
            segment = Segment.FREQUENT
        else:
            segment = Segment.INFREQUENT
        out.append(CustomerSegment(customer_id, segment, n_purchases,
                                   last_seen[customer_id], spend[customer_id]))
    return out


def reference_build_incidence_matrix(txns, members) -> PurchaseMatrix:
    """Total spend of each member customer on each stock code.

    Columns are the stock codes the member set actually purchased. Spends
    are accumulated in sorted transaction order so the result is identical
    across runs.
    """
    members = set(members)
    if not members:
        raise ValueError("empty member set")
    present = {t.customer_id for t in txns}
    unknown = members - present
    if unknown:
        raise ValueError(f"members with no transactions: {sorted(unknown)}")

    member_txns = sorted(
        (t for t in txns if t.customer_id in members),
        key=lambda t: (t.customer_id, t.stock_code, t.invoice_id),
    )
    row_ids = sorted(members)
    col_ids = sorted({t.stock_code for t in member_txns})
    row_index = {c: i for i, c in enumerate(row_ids)}
    col_index = {s: j for j, s in enumerate(col_ids)}
    entries: dict[tuple[int, int], float] = {}
    for t in member_txns:
        key = (row_index[t.customer_id], col_index[t.stock_code])
        entries[key] = entries.get(key, 0.0) + t.spend
    return purchase_matrix(row_ids, col_ids, entries)


def reference_compute_rfm_attributes(txns, as_of: datetime) -> list[RfmAttributes]:
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


# ---------------------------------------------------------- box-cox ------

def boxcox_grid_lambda(values, lo=-5.0, hi=5.0, resolution=1e-3):
    """Arg-max of the power-transform profile log-likelihood on a grid."""
    values = np.asarray(values, dtype=float)
    logs = np.log(values).sum()
    n = len(values)
    grid = np.arange(lo, hi + resolution / 2, resolution)
    best_lam, best_ll = None, -np.inf
    for lam in grid:
        if abs(lam) < 1e-12:
            t = np.log(values)
        else:
            t = (values ** lam - 1.0) / lam
        var = t.var()
        if var <= 0:
            continue
        ll = -0.5 * n * np.log(var) + (lam - 1.0) * logs
        if ll > best_ll:
            best_ll, best_lam = ll, lam
    return float(best_lam)


# -------------------------------------------------------- clustering -----

def minimum_spanning_weight_bruteforce(weights: np.ndarray) -> float:
    """Minimum total weight over every spanning tree (tiny n only)."""
    n = weights.shape[0]
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = np.inf
    for combo in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(weights[a, b] for a, b in combo))
    return float(best)


def full_pairwise_distances(points) -> np.ndarray:
    """Euclidean distances from the full n x n x k difference tensor."""
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def full_core_distances(points, min_samples) -> np.ndarray:
    """min_samples-th nearest-neighbor distance by sorting whole rows of the
    full distance matrix (position 0 is the point itself)."""
    return np.sort(full_pairwise_distances(points), axis=1)[:, min_samples]


def _mutual_reachability(points, min_samples):
    dist = full_pairwise_distances(points)
    core = full_core_distances(points, min_samples)
    return np.maximum(dist, np.maximum(core[:, None], core[None, :]))


def full_prim_mst(points, core) -> list:
    """Prim's algorithm over a precomputed n x n mutual reachability matrix;
    on ties the lowest-index vertex joins first."""
    dist = full_pairwise_distances(points)
    core = np.asarray(core, dtype=float)
    mreach = np.maximum(dist, np.maximum(core[:, None], core[None, :]))
    n = len(mreach)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    parent = np.full(n, -1)
    best[0] = 0.0
    edges = []
    for _ in range(n):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[v] = True
        if parent[v] >= 0:
            edges.append((int(parent[v]), v, float(best[v])))
        improve = ~in_tree & (mreach[v] < best)
        parent[improve] = v
        best[improve] = mreach[v][improve]
    return edges


def reference_density_partition(points, min_samples, min_cluster_size):
    """Threshold-sweep density clustering over the complete reachability
    graph; returns (frozenset-of-members per cluster, noise frozenset).

    Sweeps distinct reachability levels from the largest down, recomputing
    connected components from scratch at every level, and tracks cluster
    births, point departures, and splits directly from the component
    structure. Stability selection and labeling mirror the published
    excess-of-mass rule with the tree root allowed to win.
    """
    n = len(points)
    mr = _mutual_reachability(points, min_samples)
    off_diag = mr[~np.eye(n, dtype=bool)]
    levels = sorted(set(off_diag.tolist()), reverse=True)

    def components(members, threshold):
        # connected parts of `members` using edges strictly below threshold
        members = sorted(members)
        seen = set()
        parts = []
        for start in members:
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            while queue:
                a = queue.pop()
                for b in members:
                    if b not in comp and mr[a, b] < threshold:
                        comp.add(b)
                        queue.append(b)
            seen |= comp
            parts.append(comp)
        return parts

    clusters = {0: {"birth": 0.0, "size": n, "children": [], "parent": None}}
    active = {0: set(range(n))}
    departure = {}
    next_cid = 1

    for level in levels:
        lam = np.inf if level == 0 else 1.0 / level
        for cid in sorted(active):
            members = active[cid]
            parts = components(members, level)
            if len(parts) == 1 and len(parts[0]) == len(members):
                continue
            big = [p for p in parts if len(p) >= min_cluster_size]
            small = [p for p in parts if len(p) < min_cluster_size]
            if len(big) >= 2:
                for part in sorted(big, key=min):
                    clusters[next_cid] = {"birth": lam, "size": len(part),
                                          "children": [], "parent": cid}
                    clusters[cid]["children"].append(next_cid)
                    active[next_cid] = part
                    next_cid += 1
                for part in small:
                    for p in part:
                        departure[p] = (cid, lam)
                del active[cid]
            elif len(big) == 1:
                active[cid] = big[0]
                for part in small:
                    for p in part:
                        departure[p] = (cid, lam)
            else:
                for p in members:
                    departure[p] = (cid, lam)
                del active[cid]
    for cid, members in active.items():  # everything departs by the last level
        for p in members:
            departure[p] = (cid, np.inf)

    stability = {cid: 0.0 for cid in clusters}
    for p, (cid, lam) in departure.items():
        stability[cid] += lam - clusters[cid]["birth"]
    for cid, info in clusters.items():
        if info["parent"] is not None:
            stability[info["parent"]] += info["size"] * (info["birth"]
                                                         - clusters[info["parent"]]["birth"])

    selected = {cid: True for cid in clusters}
    if n < min_cluster_size:
        selected[0] = False
    adjusted = dict(stability)
    for cid in sorted(clusters, reverse=True):
        kids = clusters[cid]["children"]
        if not kids:
            continue
        child_sum = sum(adjusted[k] for k in kids)
        if child_sum > adjusted[cid]:
            selected[cid] = False
            adjusted[cid] = child_sum
        else:
            stack = list(kids)
            while stack:
                d = stack.pop()
                selected[d] = False
                stack.extend(clusters[d]["children"])

    member_sets: dict[int, set] = {}
    noise = set()
    for p in range(n):
        cid, _ = departure[p]
        while cid is not None and not selected[cid]:
            cid = clusters[cid]["parent"]
        if cid is None:
            noise.add(p)
        else:
            member_sets.setdefault(cid, set()).add(p)
    return {frozenset(v) for v in member_sets.values()}, frozenset(noise)


def partition_of(labels) -> tuple[set, frozenset]:
    """Convert a label vector into (set of member frozensets, noise set)."""
    labels = np.asarray(labels)
    clusters = {frozenset(np.flatnonzero(labels == c).tolist())
                for c in set(labels.tolist()) if c >= 0}
    return clusters, frozenset(np.flatnonzero(labels == -1).tolist())

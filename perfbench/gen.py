"""Seeded workload generators for the shoplens benchmark.

Two kinds of input are produced, both byte-identical for a given seed:

* ``write_invoices``: a UCI-Online-Retail-shaped invoice CSV (the ``paper``
  and ``crowd`` workloads). It carries the traffic the real export has:
  anonymous lines, ``C``-prefixed cancellation invoices, non-positive
  quantities and prices, a few wholesale invoices, every line of an invoice
  sharing one ``%m/%d/%Y %H:%M`` timestamp, descriptions with quoted commas,
  and a small share of rows the parser must reject. Customers belong to
  latent taste groups and their activity is heavy-tailed.
* ``write_p_prime``: a reduced spend matrix P' in the pipeline's triplet
  artifact format, placed in a fresh run directory (the ``grid`` workload).

Each generator returns its calibration. For invoices the calibration is
computed by an independent re-implementation of the documented cleaning and
segmentation rules, so the benchmark can check ingest's own counts against
it exactly.

Run ``python3 perfbench/gen.py {paper,crowd,grid} --seed N --out PATH`` to
write one input and print its calibration.
"""

import argparse
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

HEADER = ("InvoiceNo,StockCode,Description,Quantity,InvoiceDate,"
          "UnitPrice,CustomerID,Country")
COUNTRIES = ("United Kingdom",) * 9 + ("France", "Germany", "EIRE", "Spain")
RETAIL_QTY = np.array([1, 2, 3, 4, 6, 8, 10, 12, 24])
RETAIL_QTY_P = np.array([.22, .18, .1, .1, .14, .06, .06, .1, .04])
FIRST_DAY = datetime(2010, 12, 1, 8, 0)
N_DAYS = 373
# Threshold and minimum invoice count the pipeline applies by default.
WHOLESALE_UNITS = 1000
FREQUENT_MIN_INVOICES = 5
# UCI-like traffic shares, the same for every invoice workload.
ANONYMOUS_SHARE = 0.25     # of all lines
CANCEL_SHARE = 0.04        # cancellation invoices per registered invoice
NONPOSITIVE_SHARE = 0.01   # lines with a non-positive quantity or price
REJECT_SHARE = 0.002       # lines the parser must reject


@dataclass(frozen=True)
class InvoiceShape:
    frequent: int          # customers meant to land in the Frequent segment
    infrequent: int        # registered customers with 1..4 invoices
    wholesale: int         # customers with one invoice above the unit threshold
    items: int             # catalogue size
    groups: int            # latent taste groups
    extra_invoices: float  # mean invoices above the frequent minimum
    basket: float          # mean lines per retail invoice


# ``paper`` keeps the paper's matrix shape (~447 x ~2.7k) with a scaled line
# count; ``crowd`` has many frequent shoppers, short baskets, few items.
INVOICE_SHAPES = {
    "paper": InvoiceShape(frequent=450, infrequent=900, wholesale=12,
                          items=2750, groups=6, extra_invoices=5.0, basket=14.0),
    "crowd": InvoiceShape(frequent=3000, infrequent=1500, wholesale=20,
                          items=320, groups=5, extra_invoices=2.0, basket=3.0),
}


def _item_codes(rng, n: int) -> list[str]:
    numbers = rng.choice(np.arange(10000, 90000), size=n, replace=False)
    suffix = rng.choice(["", "", "", "", "A", "B", "C"], size=n)
    return [f"{a}{b}" for a, b in zip(numbers.tolist(), suffix.tolist())]


def _item_sampler(rng, n_items: int, groups: int):
    """Per-group item distributions: a shared Zipf popularity mixed with a
    group-specific Zipf over a permuted catalogue."""
    ranks = np.arange(1, n_items + 1)
    base = 1.0 / ranks ** 0.9
    popular = base[rng.permutation(n_items)]
    popular /= popular.sum()
    probs = []
    for _ in range(groups):
        taste = base[rng.permutation(n_items)] ** 1.3
        taste /= taste.sum()
        probs.append(np.cumsum(0.35 * popular + 0.65 * taste))
    return probs


def _timestamp(day: int, minute: int) -> str:
    t = FIRST_DAY + timedelta(days=int(day), minutes=int(minute))
    return f"{t.month}/{t.day}/{t.year} {t.hour}:{t.minute:02d}"


def write_invoices(path: str | Path, workload: str, seed: int) -> dict:
    """Write the invoice CSV for ``workload`` and return its calibration."""
    shape = INVOICE_SHAPES[workload]
    rng = np.random.default_rng([seed, 1])
    codes = _item_codes(rng, shape.items)
    prices = np.round(np.exp(rng.normal(np.log(2.0), 1.0, shape.items)), 2).clip(0.1)
    descriptions = [f"ITEM {c}" for c in codes]
    for j in rng.choice(shape.items, size=max(1, shape.items // 40), replace=False):
        descriptions[j] = f"SET OF 3, ITEM {codes[j]}"  # quoted comma, legal CSV
    samplers = _item_sampler(rng, shape.items, shape.groups)

    n_reg = shape.frequent + shape.infrequent + shape.wholesale
    customer_ids = [str(12346 + i) for i in rng.permutation(n_reg * 3)[:n_reg]]
    kind = np.array(["F"] * shape.frequent + ["I"] * shape.infrequent
                    + ["W"] * shape.wholesale)
    group = rng.integers(0, shape.groups, size=n_reg)
    country = rng.choice(len(COUNTRIES), size=n_reg)
    extra = np.minimum(rng.pareto(2.5, size=n_reg) * shape.extra_invoices * 1.5,
                       shape.extra_invoices * 12).astype(int)
    n_inv = np.where(kind == "F", FREQUENT_MIN_INVOICES + extra,
                     np.where(kind == "I", rng.integers(1, 5, size=n_reg),
                              rng.integers(1, 6, size=n_reg)))

    # Invoice table: (owner index or -1 for anonymous, is_cancel, is_bulk)
    owners = np.repeat(np.arange(n_reg), n_inv)
    bulk = np.zeros(owners.size, dtype=bool)
    first_of = np.concatenate([[0], np.cumsum(n_inv)[:-1]])
    bulk[first_of[kind == "W"]] = True
    n_cancel = int(round(CANCEL_SHARE * owners.size))
    cancel_owner = rng.choice(owners, size=n_cancel)
    # Anonymous invoices have the same basket sizes, so this sets their line share.
    n_anon = int(round(ANONYMOUS_SHARE / (1 - ANONYMOUS_SHARE) * owners.size))
    inv_owner = np.concatenate([owners, cancel_owner, np.full(n_anon, -1)])
    inv_cancel = np.concatenate([np.zeros(owners.size, bool), np.ones(n_cancel, bool),
                                 np.zeros(n_anon, bool)])
    inv_bulk = np.concatenate([bulk, np.zeros(n_cancel + n_anon, bool)])
    n_invoices = inv_owner.size
    when = rng.integers(0, N_DAYS * 600, size=n_invoices)  # 10 h trading day
    order = np.argsort(when, kind="stable")
    inv_owner, inv_cancel, inv_bulk, when = (
        inv_owner[order], inv_cancel[order], inv_bulk[order], when[order])
    # Capped so no retail invoice reaches the wholesale unit threshold.
    inv_lines = np.minimum(rng.geometric(1.0 / shape.basket, size=n_invoices), 40)
    inv_lines[inv_bulk] = rng.integers(3, 7, size=int(inv_bulk.sum()))

    # Line table
    line_inv = np.repeat(np.arange(n_invoices), inv_lines)
    n_lines = line_inv.size
    owner = inv_owner[line_inv]
    grp = np.where(owner >= 0, group[np.maximum(owner, 0)],
                   rng.integers(0, shape.groups, size=n_lines))
    u = rng.random(n_lines)
    item = np.empty(n_lines, dtype=int)
    for g in range(shape.groups):
        sel = grp == g
        item[sel] = np.minimum(np.searchsorted(samplers[g], u[sel]), shape.items - 1)
    qty = rng.choice(RETAIL_QTY, p=RETAIL_QTY_P, size=n_lines)
    is_bulk = inv_bulk[line_inv]
    qty[is_bulk] = rng.integers(240, 600, size=int(is_bulk.sum()))
    is_cancel = inv_cancel[line_inv]
    qty[is_cancel] = -qty[is_cancel]
    price = prices[item].copy()
    nonpos = (rng.random(n_lines) < NONPOSITIVE_SHARE) & ~is_cancel & ~is_bulk
    zero_price = nonpos & (rng.random(n_lines) < 0.3)
    price[zero_price] = 0.0
    qty[nonpos & ~zero_price] = -rng.integers(1, 12, size=int((nonpos & ~zero_price).sum()))
    rejected = (rng.random(n_lines) < REJECT_SHARE) & ~is_bulk
    reject_kind = rng.integers(0, 4, size=n_lines)

    invoice_no = np.arange(536365, 536365 + n_invoices)
    inv_label = [("C" if c else "") + str(no) for c, no in zip(inv_cancel.tolist(),
                                                              invoice_no.tolist())]
    stamps = [_timestamp(w // 600, w % 600) for w in when.tolist()]
    rows = [HEADER]
    for i in range(n_lines):
        v = line_inv[i]
        o = owner[i]
        cust = customer_ids[o] if o >= 0 else ""
        ctry = COUNTRIES[country[o]] if o >= 0 else "United Kingdom"
        j = item[i]
        desc = descriptions[j]
        desc = f'"{desc}"' if "," in desc else desc
        fields = [inv_label[v], codes[j], desc, str(qty[i]), stamps[v],
                  f"{price[i]:.2f}", cust, ctry]
        if rejected[i]:
            k = reject_kind[i]
            if k == 0:
                fields[3] = f"{abs(qty[i])}.5"          # non-integer quantity
            elif k == 1:
                fields[5] = "N/A"                     # non-numeric price
            elif k == 2:
                fields[4] = "31/31/2011 25:99"        # unparseable date
            else:
                fields[1] = ""                        # empty stock code
        rows.append(",".join(fields))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")

    return _calibrate(n_lines, rejected, owner, inv_cancel[line_inv], qty, price,
                      line_inv, item, codes, kind)


def _calibrate(n_lines, rejected, owner, cancel, qty, price, line_inv, item,
               codes, kind) -> dict:
    """Expected ingest counts, re-derived from the generated line table."""
    parsed = ~rejected
    clean = parsed & (owner >= 0) & ~cancel & (qty > 0) & (price > 0)
    c_owner, c_inv, c_qty, c_item = owner[clean], line_inv[clean], qty[clean], item[clean]
    pairs, inverse = np.unique(np.stack([c_owner, c_inv]), axis=1, return_inverse=True)
    units = np.bincount(inverse.ravel(), weights=c_qty)
    invoices_per = np.bincount(pairs[0], minlength=owner.max() + 1)
    biggest = np.zeros(owner.max() + 1)
    np.maximum.at(biggest, pairs[0], units)
    present = invoices_per > 0
    wholesale = present & (biggest > WHOLESALE_UNITS)
    frequent = present & ~wholesale & (invoices_per >= FREQUENT_MIN_INVOICES)
    member = frequent[c_owner]
    matrix_pairs = np.unique(np.stack([c_owner[member], c_item[member]]), axis=1)
    return {
        "parsed_lines": int(parsed.sum()),
        "rejected_rows": int(rejected.sum()),
        "clean_transactions": int(clean.sum()),
        "registered_customers": int(present.sum()),
        "frequent_shoppers": int(frequent.sum()),
        "matrix_rows": int(frequent.sum()),
        "matrix_cols": int(np.unique(c_item[member]).size),
        "matrix_nnz": int(matrix_pairs.shape[1]),
        "anonymous_lines": int((owner < 0).sum()),
        "cancellation_lines": int(cancel.sum()),
        "wholesale_customers": int(wholesale.sum()),
        "planned_frequent": int((kind == "F").sum()),
        "total_lines": int(n_lines),
    }


# ``grid`` stands in for select-features' output at the paper's selected
# shape: 447 frequent shoppers x 75 kept items.
P_PRIME_SHAPE = {"rows": 447, "cols": 75, "rank": 5, "density": 0.45}


def write_p_prime(run_dir: str | Path, seed: int) -> dict:
    """Write a seeded P' (low-rank spend plus noise, sparse support) as the
    select-features triplet artifacts of a fresh run directory."""
    n, m, k = P_PRIME_SHAPE["rows"], P_PRIME_SHAPE["cols"], P_PRIME_SHAPE["rank"]
    rng = np.random.default_rng([seed, 2])
    w = rng.gamma(0.6, 1.0, size=(n, k))
    h = rng.gamma(0.5, 1.0, size=(k, m)) * rng.uniform(2.0, 12.0, size=(1, m))
    spend = (w @ h) * rng.lognormal(0.0, 0.25, size=(n, m))
    keep = rng.random((n, m)) < P_PRIME_SHAPE["density"]
    keep[np.arange(n), rng.integers(0, m, size=n)] = True   # no empty row
    keep[rng.integers(0, n, size=m), np.arange(m)] = True   # no empty column
    spend = np.round(np.where(keep, np.maximum(spend, 0.01), 0.0), 2)
    row_ids = sorted(str(12346 + i) for i in rng.choice(6000, size=n, replace=False))
    col_ids = sorted(str(c) for c in rng.choice(np.arange(10000, 90000), size=m,
                                                replace=False))
    out = Path(run_dir) / "select-features"
    out.mkdir(parents=True, exist_ok=True)
    rows_i, cols_j = np.nonzero(spend)
    lines = ["row_id,col_id,value"] + [
        f"{row_ids[i]},{col_ids[j]},{float(spend[i, j])!r}"
        for i, j in zip(rows_i.tolist(), cols_j.tolist())]
    (out / "p_prime.triplets.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "p_prime.rows.txt").write_text("".join(r + "\n" for r in row_ids),
                                          encoding="utf-8")
    (out / "p_prime.cols.txt").write_text("".join(c + "\n" for c in col_ids),
                                          encoding="utf-8")
    return {"frequent_shoppers": n, "items": m, "matrix_nnz": int(rows_i.size)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["paper", "crowd", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="CSV path (paper, crowd) or run directory (grid)")
    args = parser.parse_args()
    if args.workload == "grid":
        calibration = write_p_prime(args.out, args.seed)
    else:
        calibration = write_invoices(args.out, args.workload, args.seed)
    print(json.dumps(calibration, sort_keys=True))


if __name__ == "__main__":
    main()

"""Run records and their CSV serialization.

The CSV contract: '#'-prefixed header lines echoing the configuration, then
the column header row, then one row per recorded iteration.  Values are
printed with 17 significant digits so a parsed file reproduces the rows
exactly; missing capabilities are empty cells, never zeros.

``wall_seconds`` is the record's share of the ``run`` call that produced it:
the call's wall time divided by its number of seeds, so a one-seed run
reports its own time, and the seeds of a batch add up to the batch's time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class MetricRow:
    k: int
    alpha_k: float
    beta_k: float
    consensus_err: float | None = None
    tracking_err: float | None = None
    grad_norm_sq: float | None = None
    opt_gap_avg: float | None = None
    residual_avg: float | None = None

    def values(self):
        return [getattr(self, c) for c in CSV_COLUMNS]


# The field order is the column order of every record CSV.
CSV_COLUMNS = [f.name for f in fields(MetricRow)]


@dataclass
class RunRecord:
    config: dict
    seed: int
    rows: list = field(default_factory=list)
    status: str = "completed"
    wall_seconds: float = 0.0

    def column(self, name):
        """Values of one metric column, paired with k, skipping missing cells."""
        ks, vals = [], []
        for row in self.rows:
            v = getattr(row, name)
            if v is not None:
                ks.append(row.k)
                vals.append(v)
        return ks, vals


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}"


def record_to_csv(record):
    lines = []
    for key in sorted(record.config):
        lines.append(f"# {key} = {record.config[key]}")
    lines.append(f"# seed = {record.seed}")
    lines.append(f"# status = {record.status}")
    lines.append(f"# wall_seconds = {record.wall_seconds:.6f}")
    lines.append(",".join(CSV_COLUMNS))
    for row in record.rows:
        lines.append(",".join(_fmt(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def rows_from_csv(text):
    """Parse a record CSV back into MetricRows (header comments ignored)."""
    rows = []
    header_seen = False
    for ln in text.splitlines():
        if not ln.strip() or ln.startswith("#"):
            continue
        if not header_seen:
            if ln.split(",") != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header: {ln!r}")
            header_seen = True
            continue
        cells = ln.split(",")
        vals = [None if c == "" else float(c) for c in cells[1:]]
        rows.append(MetricRow(int(cells[0]), *vals))
    return rows


def aggregate_mean_rows(records):
    """Per-k mean of each metric across records (cells missing anywhere stay missing)."""
    if not records:
        return []
    base = records[0].rows
    out = []
    for idx, row in enumerate(base):
        agg = {"k": row.k, "alpha_k": row.alpha_k, "beta_k": row.beta_k}
        for col in CSV_COLUMNS[3:]:
            vals = [getattr(r.rows[idx], col) for r in records if idx < len(r.rows)]
            if any(v is None for v in vals):
                agg[col] = None
                continue
            total = 0.0
            for v in vals:  # left to right; sum() compensates rounding from Python 3.12 on
                total += v
            agg[col] = total / len(vals)
        out.append(MetricRow(**agg))
    return out

"""Report records for the verification harness plus CSV/JSON emission and
log-log exponent fitting.

CSV rows carry the parameter columns first, then the fixed tail
measured, reference, ratio, runtime_ms.  Floats are serialized with 12
significant digits; a degenerate ratio (reference <= 0) serializes empty.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TAIL_COLUMNS = ("measured", "reference", "ratio", "runtime_ms")


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity next to its reference envelope."""

    params: dict
    measured: float
    reference: float
    ratio: float | None
    runtime_ms: int

    def row(self) -> dict:
        return {**self.params, **{key: getattr(self, key) for key in TAIL_COLUMNS}}


def _ratio(value: float, reference: float | None) -> float | None:
    """value / reference, or None where the reference degenerates (None or
    <= 0): the package's one ratio rule, which every report, moment check,
    trace cell and count reads."""
    return value / reference if reference is not None and reference > 0 else None


def make_report(params: dict, measured: float, reference: float, t0: float) -> BoundReport:
    """Assemble a report; the ratio is None when the reference degenerates."""
    return BoundReport(
        params=params,
        measured=float(measured),
        reference=float(reference),
        ratio=_ratio(measured, reference),
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


@dataclass
class SweepResult:
    reports: list[BoundReport] = field(default_factory=list)
    exceptions: int = 0
    fitted_exponent: float | None = None
    truncated: bool = False


def fit_exponent(points) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise ValueError(f"insufficient points for a fit: got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("nonpositive value: exponent fits need positive coordinates")
    xs = np.log([x for x, _ in pts])
    ys = np.log([y for _, y in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return "" if value is None else str(_json_value(value))


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):  # before int: bool is an int subclass
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def emit_report(result: SweepResult, format: str = "csv", path: str = "-") -> None:
    """Write the sweep's reports as CSV (RFC 4180) or a flat JSON array."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    rows = [r.row() for r in result.reports]
    if rows:
        keys = list(rows[0].keys())
        for row in rows[1:]:
            if list(row.keys()) != keys:
                raise ValueError("reports in one sweep must share the same columns")
    else:
        keys = list(TAIL_COLUMNS)

    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_format_value(row[k]) for k in keys])
        text = buf.getvalue()
    else:
        text = json.dumps(
            [{k: _json_value(v) for k, v in row.items()} for row in rows],
            indent=2,
        )
        text += "\n"

    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"io error writing report to {path}: {exc}") from exc


def _parse_scalar(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_report(path: str, format: str = "csv") -> list[dict]:
    """Parse a file produced by emit_report back into row dictionaries."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format {format!r}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if format == "json":
            return json.load(fh)
        reader = csv.DictReader(fh)
        return [{k: _parse_scalar(v) for k, v in row.items()} for row in reader]


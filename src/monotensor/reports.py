"""Bit-stable serialization of report objects.

CSV output uses LF line endings and 17-significant-digit floats; JSON
output is canonical (sorted keys, compact separators).  Reruns with the
same inputs produce byte-identical artifacts.
"""
from __future__ import annotations

import json

from .haar import McReport, RateFit
from .model import ExamplePair, LimitSweepReport, VerifyReport
from .moments import SignPatternReport


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def format_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{format_float(z.real)}{sign}{format_float(abs(z.imag))}j"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, complex):
        return format_complex(v)
    return str(v)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path, content: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(content)


# -- per-report table and JSON shapes ------------------------------------


def rows_for(report):
    if isinstance(report, VerifyReport):
        header = ("k", "symbolic", "matrix", "residual", "pass")
        rows = [
            (r.k, r.symbolic, r.matrix, r.residual, r.passed) for r in report.rows
        ]
        return header, rows
    if isinstance(report, LimitSweepReport):
        header = ("n", "l", "value_re", "value_im")
        rows = [(n, l, v.real, v.imag) for n, l, v in report.rows]
        return header, rows
    if isinstance(report, McReport):
        header = (
            "n", "l", "mean_re", "mean_im", "stderr",
            "target_re", "target_im", "abs_err",
        )
        rows = [
            (
                r.n, r.l, r.mean.real, r.mean.imag, r.stderr,
                r.target.real, r.target.imag, r.abs_err,
            )
            for r in report.rows
        ]
        return header, rows
    if isinstance(report, ExamplePair):
        header = ("matrix", "index", "eigenvalue", "expected")
        rows = []
        for name, got, want in (
            ("x", report.x_eigenvalues, report.x_expected),
            ("y", report.y_eigenvalues, report.y_expected),
        ):
            for i, (g, w) in enumerate(zip(got, want)):
                rows.append((name, i, float(g), float(w)))
        return header, rows
    if isinstance(report, SignPatternReport):
        header = ("table", "row", "col", "value_re", "value_im", "sign")
        rows = []
        for name, values, pattern in (
            ("cyclic", report.cyclic_values, report.cyclic_pattern),
            ("monotone", report.monotone_values, report.monotone_pattern),
        ):
            for i, label_i in enumerate(report.labels):
                for j, label_j in enumerate(report.labels):
                    v = values[i][j]
                    rows.append((name, label_i, label_j, v.real, v.imag, pattern[i][j]))
        return header, rows
    raise TypeError(f"no table form for {type(report).__name__}")


def json_obj_for(report):
    if isinstance(report, VerifyReport):
        return {
            "kind": report.kind,
            "rtol": report.rtol,
            "passed": report.passed,
            "rows": [
                {
                    "k": r.k,
                    "symbolic": [r.symbolic.real, r.symbolic.imag],
                    "matrix": [r.matrix.real, r.matrix.imag],
                    "residual": r.residual,
                    "pass": r.passed,
                }
                for r in report.rows
            ],
        }
    if isinstance(report, LimitSweepReport):
        return {
            "k": report.k,
            "cyclic_value": [report.cyclic_value.real, report.cyclic_value.imag],
            "monotone_value": [report.monotone_value.real, report.monotone_value.imag],
            "cyclic_consistent": report.cyclic_consistent,
            "corner_consistent": report.corner_consistent,
            "monotone_limit_ok": report.monotone_limit_ok,
            "rows": [
                {"n": n, "l": l, "value": [v.real, v.imag]} for n, l, v in report.rows
            ],
        }
    if isinstance(report, ExamplePair):
        return {
            "x_eigenvalues": [float(x) for x in report.x_eigenvalues],
            "y_eigenvalues": [float(x) for x in report.y_eigenvalues],
            "x_expected": [float(x) for x in report.x_expected],
            "y_expected": [float(x) for x in report.y_expected],
            "ok": report.ok,
        }
    if isinstance(report, SignPatternReport):
        return {
            "labels": list(report.labels),
            "cyclic_pattern": [list(row) for row in report.cyclic_pattern],
            "monotone_pattern": [list(row) for row in report.monotone_pattern],
            "cyclic_ok": report.cyclic_ok,
            "monotone_ok": report.monotone_ok,
            "ok": report.ok,
        }
    if isinstance(report, RateFit):
        return {
            "n": report.n_list,
            "mad": report.mads,
            "slope": report.slope,
            "intercept": report.intercept,
            "band_low": report.band[0],
            "band_high": report.band[1],
            "degenerate": report.degenerate,
        }
    raise TypeError(f"no JSON form for {type(report).__name__}")


def emit_report(report, fmt: str = "csv") -> str:
    """Render a report as CSV or canonical JSON text."""
    if fmt == "csv":
        header, rows = rows_for(report)
        return render_csv(header, rows)
    if fmt == "json":
        return canonical_json(json_obj_for(report))
    raise ValueError(f"unknown format {fmt!r}")

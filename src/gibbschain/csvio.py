"""Deterministic CSV and manifest output.

CSV bodies must be byte-identical across reruns of the same config and seed:
floats are written with repr (shortest round-trip form), rows arrive already
sorted by the caller, and no timestamps enter the body.  Each file opens with
a '#'-prefixed header block naming the experiment and the column meanings.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, float):
        # normalizes numpy scalars to the plain shortest round-trip form
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path, comments, columns, rows):
    """Write one CSV file; returns the number of data rows.  A field holding a
    comma, quote or line break is quoted (``csv.QUOTE_MINIMAL``), no other."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([format_value(v) for v in row] for row in rows)
    return len(rows)


def csv_body_bytes(path):
    """File content with '#' comment lines stripped (the determinism contract)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return b"\n".join(l for l in raw.split(b"\n") if not l.startswith(b"#"))


def _row_text(row):
    """``label: measured <= bound`` (or ``>``), in as many digits as tell the two apart."""
    label, m, b, _ = row
    ms, bs = f"{m:.4g}", f"{b:.4g}"
    if ms == bs and m != b:
        ms, bs = format_value(m), format_value(b)
    return f"{label}: {ms} {'<=' if m <= b else '>'} {bs}"


def _ratio(row):
    """measured / bound where the bound is finite and > 0 and measured is a number, else -inf."""
    _, m, b, _ = row
    return m / b if 0 < b < math.inf and not math.isnan(m) else -math.inf


class Manifest:
    """Collects run metadata and writes manifest.txt."""

    def __init__(self, config, version):
        self.config = config
        self.version = version
        self.files = []
        self.fitted = []
        self.checks = []
        self.errors = []
        self.notes = []
        self.wall_seconds = None

    def write_csv(self, output_dir, name, comments, columns, rows):
        """Write ``name`` into output_dir with ``write_csv`` and list it in [files]."""
        count = write_csv(os.path.join(output_dir, name), comments, columns, rows)
        self.files.append((name, tuple(columns), count))

    def add_fit(self, label, value):
        self.fitted.append((label, value))

    def add_check(self, name, rows, note=""):
        """Record check ``name`` over its (label, measured, bound, ok) rows; return its
        verdict, a pass when it has rows and all are ok.  The detail names the first
        failing row, else the worst (largest ``_ratio``), then ``note``."""
        failing = [row for row in rows if not row[3]]
        detail = "no rows"
        if failing:
            detail = f"{len(failing)} of {len(rows)} rows fail; first {_row_text(failing[0])}"
        elif rows:
            worst = _row_text(max(rows, key=_ratio))
            detail = f"{len(rows)} row{'s' * (len(rows) > 1)}; worst {worst}"
        passed = bool(rows) and not failing
        self.checks.append((name, passed, f"{detail}; {note}" if note else detail))
        return passed

    def add_error(self, message):
        self.errors.append(str(message))

    def add_note(self, message):
        """A remark on how the run was made, written apart from its checks."""
        self.notes.append(str(message))

    @property
    def all_passed(self):
        return not self.errors and all(p for _, p, _ in self.checks)

    def check_lines(self):
        """One ``PASS|FAIL  <name>  (<detail>)`` line per check, in order."""
        return [f"{'PASS' if p else 'FAIL'}  {name}  ({detail})"
                for name, p, detail in self.checks]

    def write(self, output_dir):
        lines = [
            f"tool_version: {self.version}",
            f"experiment: {self.config.experiment}",
            f"wall_seconds: {self.wall_seconds if self.wall_seconds is not None else 'n/a'}",
            "",
            "[config]",
        ]
        lines += self.config.as_lines()
        lines += ["", "[files]"]
        for name, columns, count in self.files:
            lines.append(f"{name}: rows={count} columns={','.join(columns)}")
        if self.fitted:
            lines += ["", "[fitted]"]
            for label, value in self.fitted:
                lines.append(f"{label} = {format_value(value)}")
        lines += ["", "[checks]"] + self.check_lines()
        if self.errors:
            lines += ["", "[errors]"]
            lines += self.errors
        if self.notes:
            lines += ["", "[notes]"]
            lines += self.notes
        lines += ["", f"summary: {'PASS' if self.all_passed else 'FAIL'}"]
        path = os.path.join(output_dir, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

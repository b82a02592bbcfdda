"""The one CSV writer behind every run-directory table and capture export.

Comma-separated, a header row, LF line endings, and floats in Python's
shortest round-trip form, so each file reads back to the exact values.
"""

from __future__ import annotations

import csv
from os import PathLike
from typing import Iterable


def write_csv(path: str | PathLike, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` to the file at ``path``; None is an
    empty field."""
    with open(path, "w", newline="") as buf:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

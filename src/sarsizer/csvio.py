"""The one CSV writer behind every run-directory table and capture export.

Comma-separated, a header row, LF line endings, and floats in Python's
shortest round-trip form, so each file reads back to the exact values.
"""

from __future__ import annotations

import csv
from os import PathLike
from typing import Iterable


def write_csv(path_or_buf, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` to a path, or to an open text buffer
    that stays open."""
    if isinstance(path_or_buf, (str, bytes, PathLike)):
        with open(path_or_buf, "w", newline="") as buf:
            write_csv(buf, header, rows)
        return
    writer = csv.writer(path_or_buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)

"""The one CSV writer behind every run-directory table and capture export.

Comma-separated, a header row, LF line endings, and floats in Python's
shortest round-trip form, so each file reads back to the exact values.
"""

from __future__ import annotations

from itertools import chain
from os import PathLike
from typing import Iterable


def write_csv(path: str | PathLike, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` to the file at ``path``, each row one
    line of its fields' ``str`` joined by commas; None is an empty field.

    These are csv.writer's bytes for the fields a run writes, without its
    per-field cost.  A field that csv.writer would quote (one holding a
    comma, a double quote, CR or LF) raises ValueError; the lines before
    it are then already written.
    """
    with open(path, "w", newline="") as buf:
        for row in chain([header], rows):
            fields = ["" if field is None else str(field) for field in row]
            line = ",".join(fields)
            if (line.count(",") > max(len(fields) - 1, 0)
                    or '"' in line or "\r" in line or "\n" in line):
                raise ValueError(f"{path}: a field would need quoting in {fields}")
            buf.write(line + "\n")

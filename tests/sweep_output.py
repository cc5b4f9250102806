"""Reading back the CSV a sweep writes."""

import csv


def csv_rows(path) -> list[dict[str, str]]:
    """The rows of a sweep's CSV, each a dict from column name to its text."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))

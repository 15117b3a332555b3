"""File formats: Pmf JSON objects, ndjson collections, bench CSVs."""

from __future__ import annotations

import csv
import json
from typing import Iterable

from .pmf import Pmf

SPEED_CSV_HEADER = ("k", "method", "replicate", "wall_seconds")
ACCURACY_CSV_HEADER = ("k", "p", "index", "exact_value", "rel_abs_error")


def read_pmf(path) -> Pmf:
    with open(path) as fh:
        return Pmf.from_dict(json.load(fh))


def write_pmf(pmf: Pmf, path) -> None:
    with open(path, "w") as fh:
        json.dump(pmf.to_dict(), fh)
        fh.write("\n")


def read_pmf_ndjson(path) -> list[Pmf]:
    pmfs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                pmfs.append(Pmf.from_dict(json.loads(line)))
    return pmfs


def write_pmf_ndjson(pmfs: Iterable[Pmf], path) -> None:
    with open(path, "w") as fh:
        for pmf in pmfs:
            fh.write(json.dumps(pmf.to_dict()))
            fh.write("\n")


def write_speed_csv(records: Iterable, path) -> None:
    """One row per harness.BenchRecord, in SPEED_CSV_HEADER order."""
    _write_csv(path, SPEED_CSV_HEADER,
               ([rec.k, rec.method, rec.replicate, repr(rec.wall_seconds)]
                for rec in records))


def write_accuracy_csv(rows: Iterable[tuple], path) -> None:
    _write_csv(path, ACCURACY_CSV_HEADER,
               ([k, f"{p:g}", index, repr(float(exact_value)), repr(float(err))]
                for k, p, index, exact_value, err in rows))


def _write_csv(path, header: tuple, rows: Iterable) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

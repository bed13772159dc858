"""Output checks: digests of sweep artifacts and row-by-row recompute checks.

CSVs are projected onto the columns they had when the digests were taken,
so columns added later do not break the check while every old value must
stay byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

RUN_COLUMNS = ["run_id", "policy", "param", "tau", "predictor", "I", "J", "W", "S", "H", "AL", "AWR", "BLEU"]
SUMMARY_COLUMNS = [
    "policy", "param", "tau", "predictor", "sentences",
    "al_baseline", "al_speculative", "al_diff", "awr", "bleu", "accuracy",
    "speculations", "hits", "withdrawals",
]


def read_rows(path: Path, columns: list[str]) -> list[tuple[str, ...]]:
    """Rows of a CSV as tuples of the given columns; a missing column raises KeyError."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return [tuple(row[c] for c in columns) for row in reader]


def digest_rows(rows: list[tuple[str, ...]]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(row).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def digest_tree(root: Path) -> str:
    """Digest of every file's relative path and bytes under `root`."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def sweep_digests(out_dir: Path, with_traces: bool) -> dict[str, str]:
    digests = {
        "runs": digest_rows(read_rows(out_dir / "runs.csv", RUN_COLUMNS)),
        "summary": digest_rows(read_rows(out_dir / "summary.csv", SUMMARY_COLUMNS)),
    }
    if with_traces:
        digests["traces"] = digest_tree(out_dir / "traces")
    return digests


def recompute_mismatches(sweep_runs: Path, trace_runs: Path, expect_all: bool) -> int:
    """Rows of `metrics`' trace_runs.csv that differ from the sweep's row with
    the same run_id. With `expect_all`, sweep rows missing from the
    recomputation count as mismatches too."""
    sweep = {row[0]: row for row in read_rows(sweep_runs, RUN_COLUMNS)}
    recomputed = read_rows(trace_runs, RUN_COLUMNS)
    bad = sum(1 for row in recomputed if sweep.get(row[0]) != row)
    if expect_all:
        bad += len(sweep.keys() - {row[0] for row in recomputed})
    return bad

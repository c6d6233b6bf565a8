"""Output checks for one benchmark run of `fuzzterm run`.

At the default seeds, results.jsonl and report.txt must match the digests
pinned in expected.json.  At any seed, results.jsonl must be well formed
and every run of one invocation must write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

OUTPUTS = ("results.jsonl", "report.txt")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each output file; a missing file raises FileNotFoundError."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def record_problems(results_text: str, sizes, baselines) -> list[str]:
    """What is wrong with a results.jsonl: empty list when it is well formed.

    Expects a leading config record, one `run` record per vector size, one
    `ttest` per baseline and size, and every F1 and p-value in [0, 1].
    """
    try:
        records = [json.loads(line) for line in results_text.splitlines()]
    except json.JSONDecodeError as exc:
        return [f"results.jsonl is not JSON lines: {exc}"]
    problems = []
    if not records or records[0].get("kind") != "config":
        problems.append("first record is not the config")
    runs = sorted(r.get("vector_size") for r in records if r.get("kind") == "run")
    if runs != sorted(sizes):
        problems.append(f"run records for sizes {runs}, expected {sorted(sizes)}")
    tests = sorted((r.get("b"), r.get("vector_size")) for r in records if r.get("kind") == "ttest")
    wanted = sorted((b, s) for b in baselines for s in sizes)
    if tests != wanted:
        problems.append(f"ttest records {tests}, expected {wanted}")
    for r in records:
        kind = r.get("kind")
        if kind == "run":
            values = [r.get("overall_f1")]
            for score in r.get("per_category", {}).values():
                values += [score.get("precision"), score.get("recall"), score.get("f1")]
        elif kind == "subset_scores":
            values = list(r.get("scores", []))
        elif kind == "ttest":
            values = [r.get("p")]
        else:
            continue
        if not all(_in_unit(v) for v in values):
            problems.append(f"{kind} record has a score outside [0, 1]: {values}")
    return problems

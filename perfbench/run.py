"""End-to-end benchmark of `fuzzterm run` on seeded synthetic workloads.

Usage:
  python3 perfbench/run.py --workload NAME|all [--seed N] [--run-seed N]
                           [--seconds S] [--trace 0|1]

For each workload the corpus is generated once from the corpus seed
(--seed), outside any timing, and written under .perfbench_work/.  Then,
for --seconds, fresh child interpreters run `fuzzterm.pipeline.run` on it,
one at a time (a closed loop with one client).  Every child's
results.jsonl and report.txt are checked: against the digests pinned in
expected.json at the default seeds, and otherwise for well-formed records
and byte equality across the invocation's runs.

--trace 0 reports the end-to-end metrics (medians over the runs):
  run_cpu_s       CPU time (user + system) of the child's process during
                  pipeline.run(config), writing the outputs included
  setup_s         child start to the entry into run(): interpreter, imports
                  and load_config; sampled by extra probe children as well
  docs_per_cpu_s  corpus documents / run_cpu_s
  peak_rss_mb     peak resident memory of a child (its own RUSAGE_SELF)
The run's wall time (run_s) is printed and kept in the record beside them,
but not reported as a metric: on a shared virtual machine it also holds
the time the host gives the child's CPU to other guests (steal time),
which varies by tens of percent from one minute to the next.  Children
run single-threaded (one BLAS thread), so CPU time is the wall time
without that steal.
--trace 1 alternates untraced and traced children and reports the per-layer
metrics of tracer.PER_LAYER (medians over the traced children), whose
outputs must equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the failure fraction.
Children get one BLAS thread.  Timings read a warm page cache: the corpus
was just written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_CORPUS_SEED,
    DEFAULT_RUN_SEED,
    WORKLOADS,
    generate,
    input_digest,
    write_config,
)

END_TO_END = (
    ("run_cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("docs_per_cpu_s", "docs/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
SETUP_PROBES = 5
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0


@dataclass
class Child:
    """One child process: its JSON report, or why it failed."""

    mode: str
    report: dict | None
    error: str | None
    wall_s: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(config: Path, result: Path, mode: str, timeout: float) -> Child:
    """Run child.py to completion; the child is always reaped."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(config), str(result), mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Child(mode, None, f"timed out after {timeout:.0f} s", time.monotonic() - spawned)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
        return Child(mode, None, f"exit {proc.returncode}: {' '.join(tail)}", wall)
    try:
        report = json.loads(result.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        return Child(mode, None, f"no readable report: {exc}", wall)
    if not Path(report["fuzzterm"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"child imported fuzzterm from {report['fuzzterm']}, not {SRC}")
    report["setup_s"] = report["entered"] - spawned
    return Child(mode, report, None, wall)


def check_outputs(out_dir: Path, workload, pinned: dict | None, reference: dict) -> str | None:
    """None when the outputs pass; otherwise what is wrong.  `reference`
    holds the first passing run's digests and is filled by that run."""
    try:
        got = checks.digests(out_dir)
        text = (out_dir / "results.jsonl").read_text(encoding="utf-8")
    except (FileNotFoundError, UnicodeDecodeError) as exc:
        return f"unreadable outputs: {exc}"
    if pinned is not None:
        wrong = [name for name in checks.OUTPUTS if got[name] != pinned[name]]
        if wrong:
            return f"{', '.join(wrong)} differ from the pinned digests"
    problems = checks.record_problems(text, workload.sizes, workload.baselines)
    if problems:
        return "; ".join(problems)
    if reference and got != reference:
        return "outputs differ from this invocation's first run"
    reference.update(got)
    return None


def bench_workload(name: str, seed: int, run_seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK))
    try:
        return _bench_in(work, workload, seed, run_seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench_in(work: Path, workload, seed: int, run_seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    manifest = generate(workload, seed, work / "corpus")
    inputs = input_digest(manifest)
    generate_s = time.monotonic() - started
    out_dir = work / "out"
    config = write_config(workload, manifest, out_dir, run_seed)
    result = work / "child.json"

    errors = []
    pinned = None
    if (seed, run_seed) == (DEFAULT_CORPUS_SEED, DEFAULT_RUN_SEED):
        pinned = checks.load_expected()[workload.name]
        if inputs != pinned["inputs"]:
            errors.append(f"generated inputs {inputs[:12]} differ from the pinned {pinned['inputs'][:12]}")

    children: list[Child] = []
    reference: dict = {}
    loop_start = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S

    def run_child(mode):
        shutil.rmtree(out_dir, ignore_errors=True)
        child = spawn(config, result, mode, max(1.0, deadline - time.monotonic()))
        if child.error is None and mode != "probe":
            child.error = check_outputs(out_dir, workload, pinned, reference)
        children.append(child)
        return child

    if not trace:
        for _ in range(SETUP_PROBES):
            run_child("probe")
    modes = ("run", "trace") if trace else ("run",)
    last_wall: dict[str, float] = {}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        elapsed = time.monotonic() - loop_start
        if i >= len(modes) and elapsed + last_wall.get(mode, 0.0) > seconds:
            break
        if time.monotonic() + last_wall.get(mode, 0.0) > deadline:
            break
        last_wall[mode] = run_child(mode).wall_s
        i += 1

    ok = [c for c in children if c.error is None]
    failed = [c for c in children if c.error is not None]
    runs = [c.report for c in ok if c.mode == "run"]
    traced = [c.report for c in ok if c.mode == "trace"]
    if not runs or (trace and not traced):
        for c in failed:
            print(f"  {c.mode} failed: {c.error}", file=sys.stderr)
        raise SystemExit(f"{workload.name}: no run passed")

    run_cpu_s = statistics.median([r["run_cpu_s"] for r in runs])
    if trace:
        metrics = {
            key: statistics.median([r["layers"][key] for r in traced])
            for key, _, _ in PER_LAYER if key != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = statistics.median([r["run_cpu_s"] for r in traced]) / run_cpu_s - 1.0
        units = {key: unit for key, unit, _ in PER_LAYER}
    else:
        metrics = {
            "run_cpu_s": run_cpu_s,
            "setup_s": statistics.median([c.report["setup_s"] for c in ok if c.mode in ("run", "probe")]),
            "docs_per_cpu_s": workload.n_docs / run_cpu_s,
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        }
        units = {key: unit for key, unit, _ in END_TO_END}
    return {
        "workload": workload.name,
        "corpus_seed": seed,
        "run_seed": run_seed,
        "docs": workload.n_docs,
        "inputs_sha256": inputs,
        "generate_s": generate_s,
        "env": ok[0].report["env"],
        "errors": errors + [f"{c.mode}: {c.error}" for c in failed],
        "absent": sorted({a for r in traced for a in r.get("absent", []) + r.get("broken_counters", [])}),
        "run_s": statistics.median([r["run_s"] for r in runs]),
        "samples": {
            f"{mode} {key}": [round(c.report[key], 4) for c in ok if c.mode == mode]
            for mode in modes
            for key in ("run_s", "run_cpu_s")
        },
        "setup_samples": [round(c.report["setup_s"], 4) for c in ok if c.mode != "trace"],
        "outputs": reference,
        "attempted": len(children),
        "failed": len(failed),
        "correct": not errors and not failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def describe(rec: dict) -> None:
    env = rec["env"]
    print(
        f"== {rec['workload']}: {rec['docs']} docs, corpus seed {rec['corpus_seed']}, "
        f"run seed {rec['run_seed']}, inputs {rec['inputs_sha256'][:12]} "
        f"(generated in {rec['generate_s']:.2f} s)"
    )
    print(
        f"   env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"BLAS threads {env['blas_threads']}, numba {env['numba_enabled']}"
    )
    for name, values in rec["samples"].items():
        print(f"   {name} samples: {values}")
    print(
        f"   wall time, not a metric: run_s median {rec['run_s']:.6g} s, "
        f"docs_per_s {rec['docs'] / rec['run_s']:.6g} docs/s"
    )
    if rec["setup_samples"]:
        print(f"   setup_s samples: {rec['setup_samples']}")
    for name, digest in rec["outputs"].items():
        print(f"   {name} sha256 {digest}")
    for err in rec["errors"]:
        print(f"   FAILED {err}")
    if rec["absent"]:
        print(f"   absent or changed trace targets (reported as 0): {', '.join(rec['absent'])}")
    print(f"   failed_frac {rec['failed'] / rec['attempted']:.3f} ({rec['failed']}/{rec['attempted']})")
    for key, m in rec["metrics"].items():
        print(f"   {key:40s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED, help="corpus seed")
    parser.add_argument("--run-seed", type=int, default=DEFAULT_RUN_SEED, help="fuzzterm run seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzzterm" / "__init__.py").is_file():
        print(f"fuzzterm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [
        bench_workload(name, args.seed, args.run_seed, args.seconds, bool(args.trace))
        for name in names
    ]
    for rec in records:
        describe(rec)
        (WORK / f"last-{rec['workload']}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1), encoding="utf-8"
        )
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""latspec benchmark: closed-loop CLI operations, each in a fresh interpreter.

    python3 perfbench/run.py --workload trace_v3 --seed 1 --seconds 30 --trace 0

One user runs one operation at a time, each a `latspec.cli.main` call with
``--threads 1`` in its own child interpreter (so every operation starts
with a cold Green memo).  A run repeats passes over the workload's inputs
until --seconds have gone by, always finishing the pass it is in; every
output is then checked against the workload's oracle.  The last stdout
line is one JSON object: the end-to-end metrics with --trace 0, or with
--trace 1 the per-module metrics of traced operations, each paired with an
untraced one so that the tracing overhead is measured too.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("trace_v3", "eigs_multisite", "sweep_coupling")
CLI_THREADS = ["--threads", "1"]
SETUP_SAMPLES = 2  # import-only children per run, besides one per operation
RUN_BUDGET_S = 150.0  # no child may still be running after this
# dropped from the child's environment, so its BLAS runs at the library's
# default thread count whatever the caller has set
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"solve_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


class Runner:
    """Spawns children and keeps one record per child."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.n = 0
        self.setup_s: list = []

    def spawn(self, extra: list, tag: str) -> dict:
        k = self.n
        self.n += 1
        result = self.work / f"{k:03d}-{tag}.result.json"
        err_path = self.work / f"{k:03d}-{tag}.stderr"
        argv = [sys.executable, str(CHILD), str(result)] + extra
        with open(err_path, "w") as err:
            t_spawn = now()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.work)
            try:
                proc.wait(timeout=max(1.0, self.deadline - now()))
            except subprocess.TimeoutExpired:
                return {"status": "failed", "reason": "timed out", "k": k}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if not result.exists():
            tail = err_path.read_text().strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return {"status": "failed", "reason": f"child died: {tail[0]}", "k": k}
        rec = json.loads(result.read_text())
        rec["k"] = k
        rec["setup_s"] = rec["t_ready"] - t_spawn
        self.setup_s.append(rec["setup_s"])
        rec["stderr"] = err_path
        return rec

    def setup_only(self) -> None:
        self.spawn(["--setup-only"], "setup")

    def operation(self, op, traced: bool) -> dict:
        k = self.n
        out = self.work / f"{k:03d}-{op.label}.out"
        cli = [str(out) if a == "{out}" else a for a in op.cli] + CLI_THREADS
        extra = ["--trace", str(self.work / f"{k:03d}-{op.label}.spans.json")] if traced else []
        rec = self.spawn(extra + ["--"] + cli, op.label)
        rec.update(op=op, traced=traced, out=out)
        if "status" in rec:
            return rec
        if rec["error"] is not None:
            rec.update(status="failed", reason=rec["error"])
        elif rec["rc"] not in (0, 3):
            rec.update(status="failed", reason=f"exit {rec['rc']}: {last_line(rec['stderr'])}")
        elif not out.exists():  # a numerical failure exits 3 without a report
            rec.update(status="failed", reason=f"exit {rec['rc']}: {last_line(rec['stderr'])}")
        else:
            rec["status"] = "flagged" if rec["rc"] == 3 else "ok"
        return rec


def last_line(path: Path) -> str:
    lines = path.read_text().strip().splitlines()
    return lines[-1] if lines else ""


def canonical_output(path: Path) -> str:
    """The output without its timestamp, so equal outputs are judged once."""
    text = path.read_text()
    if not text.startswith("{"):  # the sweep CSV carries no timestamp
        return text
    rep = json.loads(text)
    rep.pop("generated_at", None)
    return json.dumps(rep, sort_keys=True)


def measure(runner: Runner, ops: list, seconds: float, trace: bool) -> list:
    """Whole passes over `ops` until the next one would end further from
    `seconds` than stopping now; at least one pass."""
    records = []
    t0 = now()
    passes = 0
    while True:
        for op in ops:
            for traced in ((False, True) if trace else (False,)):
                rec = runner.operation(op, traced)
                rec["pass"] = passes
                records.append(rec)
        passes += 1
        elapsed = now() - t0
        per_pass = elapsed / passes
        if elapsed + 0.5 * per_pass >= seconds or now() + per_pass >= runner.deadline:
            return records


def pass_median(records: list, key: str) -> float:
    """Median over passes of each pass's mean over its operations: one
    statistic for single-input workloads (the median operation) and for a
    panel of unequal inputs (the mean operation of a pass)."""
    by_pass: dict = {}
    for r in records:
        by_pass.setdefault(r["pass"], []).append(r[key])
    return statistics.median(statistics.fmean(v) for v in by_pass.values())


def judge(records: list) -> None:
    """Run each distinct (input, output) through its oracle once; an oracle
    miss turns the operation into a failure."""
    verdicts = {}
    for rec in records:
        if rec["status"] not in ("ok", "flagged"):
            continue
        key = (rec["op"].label, canonical_output(rec["out"]))
        if key not in verdicts:
            verdicts[key] = rec["op"].check(rec["out"])
        verdict = verdicts[key]
        if not verdict.ok:
            rec.update(status="failed", reason=f"oracle: {verdict.why}", oracle_miss=True)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="picks the lattice symmetry applied to every input")
    ap.add_argument("--panel-seed", type=int, default=1,
                    help="draws the eigs_multisite potentials")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "latspec" / "cli.py").is_file():
        sys.stderr.write(f"error: no latspec sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))  # the eigs oracle evaluates D through the library

    t_start = now()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, t_start + RUN_BUDGET_S)
    ops = workloads.build(args.workload, args.seed, args.panel_seed, args.tiny, work)

    for _ in range(SETUP_SAMPLES):
        runner.setup_only()
    if len(runner.setup_s) < SETUP_SAMPLES:
        sys.stderr.write(f"error: `import latspec.cli` failed; see {work}\n")
        return 2
    records = measure(runner, ops, args.seconds, bool(args.trace))
    judge(records)

    ctx = next((r["context"] for r in records if "context" in r), {})
    print("context " + json.dumps({
        "workload": args.workload, "seed": args.seed, "panel_seed": args.panel_seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(), "nproc": os.cpu_count(), "cli_threads": 1, **ctx,
    }, sort_keys=True))
    for rec in records:
        print("op %03d %-6s %-8s %-7s solve_s=%s cpu_s=%s peak_rss_mb=%s %s" % (
            rec["k"], rec["op"].label, "traced" if rec.get("traced") else "untraced",
            rec["status"], fmt(rec.get("solve_s")), fmt(rec.get("cpu_s")),
            fmt(rec.get("peak_rss_mb")), rec.get("reason", "")))

    attempted = len(records)
    failed = sum(r["status"] == "failed" for r in records)
    flagged = sum(r["status"] == "flagged" for r in records)
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"flagged_frac {flagged / attempted:.4f} ({flagged}/{attempted})")

    # every operation whose child returned a timing counts, failed ones too,
    # so a pass always averages over the same inputs
    timed = [r for r in records if not r.get("traced") and "solve_s" in r]
    if not timed:
        sys.stderr.write("error: no operation produced a timing\n")
        return 1
    if args.trace:
        traced = [r for r in records if r.get("traced") and "layers" in r]
        if not traced:
            sys.stderr.write("error: no traced operation finished\n")
            return 1
        values = {name: statistics.fmean(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (pass_median(traced, "solve_s")
                                      - pass_median(timed, "solve_s"))
        values["ops.failed_frac"] = failed / attempted
        values["ops.flagged_frac"] = flagged / attempted
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "solve_s": pass_median(timed, "solve_s"),
            "cpu_s": pass_median(timed, "cpu_s"),
            "setup_s": statistics.median(runner.setup_s),
            "peak_rss_mb": pass_median(timed, "peak_rss_mb"),
        }
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"samples: {len(timed)} timed operations, {len(runner.setup_s)} setup samples, "
          f"wall {now() - t_start:.1f} s")

    # correct: some output was checked, and every checked output passed
    correct = any(r["status"] in ("ok", "flagged") for r in records) and not any(
        r.get("oracle_miss") for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def fmt(v) -> str:
    return "-" if v is None else f"{v:.4f}"


if __name__ == "__main__":
    sys.exit(main())

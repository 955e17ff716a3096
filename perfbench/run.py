"""nlie benchmark: one workload per call, each set-up and pass in a fresh
single-threaded worker process, every answer checked.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): ``oracle``, ``algebra``.
Jobs run one at a time (closed loop, one client).

``--trace 0`` starts measuring workers, each a fresh process that sets up and
runs one pass, for about ``--seconds`` (at least three), then set-up-only
workers until there are three set-ups and they have run for two seconds,
and reports the end-to-end metrics:

* ``wall_s``: median time of one pass over the job list, tracing off;
* ``setup_s``: median worker start-to-ready time over the set-ups
  (interpreter start, imports and seeded inputs);
* ``peak_rss_mib``: median peak resident set size of the measuring workers.

``--trace 1`` runs one untraced measuring worker, then two traced workers
(traced set-up plus one traced pass each), and reports the per-layer metrics
of ``spans.layer_metrics`` (the mean of the two traced sets), the tracing
overhead and the share of the pass that top-level spans cover.  It checks
that traced and untraced outputs are identical and that every count repeats
exactly between the two traced sets; a difference is a failure.

Every job's answers and output sha256 are compared with the pinned values of
the seed code and, where one exists, with an independent oracle (Witt
numbers, the Heisenberg closed form).  Jobs that raise or differ count as
``failed``; ``failed / attempted`` is the failure ratio.  The last stdout
line is the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle", "algebra")
SETUP_SAMPLES = 3
# A set-up of a cheap workload is about 0.2 s, mostly interpreter start, and
# single samples swing by a third on a shared host; more of them steady the
# median at little cost.
SETUP_TOP_UP_S = 2.0
MIN_PASSES = 3
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of the usual percentiles (nearest rank) with at least ten
    samples above it, as (percentile, value); None when there are too few
    samples."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        index = max(math.ceil(len(ordered) * pct / 100) - 1, 0)
        if len(ordered) - 1 - index >= 10:
            return pct, ordered[index]
    return None


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none (not a git checkout)"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_worker(workload: str, seed: int, role: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("NLIE_CACHE_DIR", None)
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--role", role,
        "--spawned-at", repr(spawned_at),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker for {workload} ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def metric(value: float, name: str) -> dict:
    return {"value": value, "unit": unit_of(name)}


def measure(workload: str, seed: int, seconds: int, deadline: float) -> list[dict]:
    """Measuring workers (set-up plus one untraced pass each) while the next
    one is expected to end within ``seconds``, at least MIN_PASSES of them;
    then set-up-only workers until there are SETUP_SAMPLES set-ups and they
    have run for SETUP_TOP_UP_S."""
    workers: list[dict] = []
    start = time.monotonic()
    while True:
        workers.append(run_worker(workload, seed, "measure", deadline))
        elapsed = time.monotonic() - start
        if len(workers) >= MIN_PASSES and elapsed * (len(workers) + 1) / len(workers) > seconds:
            break
    top_up = time.monotonic()
    while len(workers) < SETUP_SAMPLES or time.monotonic() - top_up < SETUP_TOP_UP_S:
        workers.append(run_worker(workload, seed, "setup", deadline))
    return workers


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list]:
    workers = measure(workload, seed, seconds, deadline)
    passes = [w["pass_s"] for w in workers if "pass_s" in w]
    setups = [w["setup_s"] for w in workers]
    peaks = [w["peak_rss_mib"] for w in workers if "pass_s" in w]
    tail = tail_percentile(passes)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it")
    print(f"wall_s: median {statistics.median(passes):.4f} s over n={len(passes)} passes; "
          f"{tail_text}; min {min(passes):.4f} s, max {max(passes):.4f} s")
    print(f"setup_s: median {statistics.median(setups):.4f} s over n={len(setups)} set-ups "
          f"({', '.join(f'{s:.4f}' for s in setups)})")
    print(f"peak_rss_mib: median {statistics.median(peaks):.1f} MiB over the measuring workers")
    metrics = {
        "wall_s": metric(statistics.median(passes), "wall_s"),
        "setup_s": metric(statistics.median(setups), "setup_s"),
        "peak_rss_mib": metric(statistics.median(peaks), "peak_rss_mib"),
    }
    return metrics, workers


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, list, int]:
    plain = run_worker(workload, seed, "measure", deadline)
    sets = [run_worker(workload, seed, "traced", deadline) for _ in range(2)]
    workers = [plain] + sets
    failed_checks = 0

    jobs = {job for w in workers for job in w["digests"]}
    differing = sorted(
        job for job in jobs
        if len({d for w in workers for d in w["digests"].get(job, [])}) != 1
    )
    if differing:
        failed_checks += 1
        print(f"FAIL traced and untraced outputs differ: {', '.join(differing)}")
    else:
        print(f"outputs: traced and untraced identical for {len(jobs)} jobs")

    first, second = (s["layers"] for s in sets)
    unstable = [m for m in COUNT_METRICS if first[m] != second[m]]
    if unstable:
        failed_checks += 1
        for m in unstable:
            print(f"FAIL count {m} did not repeat: {first[m]} then {second[m]}")
    else:
        print(f"counts: all {len(COUNT_METRICS)} count metrics repeat exactly")

    layers = {
        name: first[name] if name in COUNT_METRICS else (first[name] + second[name]) / 2
        for name in first
    }
    untraced_wall = plain["pass_s"]
    traced_wall = statistics.mean(s["pass_s"] for s in sets)
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"tracing overhead: traced pass {traced_wall:.4f} s - untraced pass "
          f"{untraced_wall:.4f} s = {layers['trace.overhead_s']:.4f} s; top-level spans "
          f"cover {layers['trace.top_span_share']:.2%} of the traced pass")
    return {name: metric(value, name) for name, value in sorted(layers.items())}, workers, failed_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlie" / "__init__.py").is_file():
        print(f"error: no nlie sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    print(f"nlie benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            metrics, workers, failed_checks = traced(args.workload, args.seed, deadline)
        else:
            metrics, workers = untraced(args.workload, args.seed, args.seconds, deadline)
            failed_checks = 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers) + (2 if args.trace else 0)
    failed = sum(w["failed"] for w in workers) + failed_checks
    for w in workers:
        for problem in w["problems"]:
            print(f"FAIL {problem}")
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

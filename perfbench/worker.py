"""One benchmark worker process: set up a workload, then run one timed pass.

Started by ``run.py``; it prints one JSON line on stdout when it ends.
Roles:

* ``setup``: set up and exit (a set-up sample);
* ``measure``: set up, then run one untraced pass;
* ``traced``: set up, install the span tracer, run one traced pass.

A fresh process per pass keeps every pass as cold as a CLI call: no
interpreter state (tree-order memo, heap) carries over from an earlier pass.

The set-up time is measured from ``--spawned-at``, the parent's
``time.monotonic()`` just before it started this process, to the point where
the inputs are ready, so it covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    jobs = workloads.prepare(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    attempts = []
    if args.role != "setup":
        tracer = spans.Tracer() if args.role == "traced" else None
        restore = spans.install(tracer) if tracer is not None else None

        def before_job() -> None:
            workloads.clear_memo()
            if tracer is not None:
                tracer.begin_job()

        attempts = [workloads.run_job(job, before_job) for job in jobs]
        if restore is not None:
            restore()
        result["pass_s"] = sum(a.seconds for a in attempts)
        if tracer is not None:
            pass_spans, pass_counts = tracer.take()
            result["layers"] = spans.layer_metrics(pass_spans, pass_counts, result["pass_s"])

    oracles = workloads.oracle_values(args.workload)
    problems = workloads.failures(attempts, workloads.PINNED, oracles)
    digests: dict[str, set] = {}
    for a in attempts:
        digests.setdefault(a.job, set()).add(a.sha256 or "")
    result.update(
        digests={job: sorted(seen) for job, seen in digests.items()},
        attempted=len(attempts),
        failed=len(problems),
        problems=[p for group in problems for p in group][:20],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

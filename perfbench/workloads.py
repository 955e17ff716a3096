"""The two workloads, their seeded inputs, the pinned answers and the
answer checker.

Every job runs cold: the caller clears ``free_algebra`` and ``multiplier``
memoisation before each one, as a fresh ``nlie`` process would start.

* ``oracle``: cold ``nlie graded`` calls through ``cli.main`` at (n,d,w) =
  (2,4,6), (3,4,5), (3,5,4), (2,2,9), in seeded order, with no disk cache.
  Tree enumeration, relation generation and sparse elimination in
  ``free_algebra``/``linalg`` do the work; ``algebra`` and ``multiplier``
  do none.
* ``algebra``: ``multiplier_report(L, c, lifts=random_lifts(L, s))`` for
  H(2,2) c=2, H(2,3) c=1, H(3,1) c=2, H(2,1) c=3 and H(2,1)+A(2) c=2, and
  ``run_catalog(2, algebras=...)`` over the built-in catalog in seeded order.
  The seed picks the lifts, which change the fractions but not the answers.
  In the reports, large covers make ``algebra.bracket``/``bracket_product``,
  ``linalg.left_kernel`` and ``multiplier`` do the work; the catalog loads
  the same layers as hundreds of small, mostly memo-answered calls, so
  per-call overhead and memoisation show too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from math import comb
from typing import Callable

from nlie import bounds, cli, free_algebra, multiplier
from nlie.algebra import abelian, direct_sum, heisenberg

WORKLOADS = ("oracle", "algebra")

GRADED_LAYERS = ((2, 4, 6), (3, 4, 5), (3, 5, 4), (2, 2, 9))
# (label, Heisenberg (n, m) or None, c)
MULTIPLIER_CASES = (
    ("H(2,2)", (2, 2), 2),
    ("H(2,3)", (2, 3), 1),
    ("H(3,1)", (3, 1), 2),
    ("H(2,1)", (2, 1), 3),
    ("H(2,1)+A(2)", None, 2),
)
CATALOG_C_MAX = 2


def _graded(n, d, w, trees, rank, dim, sha256):
    answers = {"n": n, "d": d, "w": w, "canonical_trees": trees, "relation_rank": rank, "dim": dim}
    return {"answers": answers, "sha256": sha256}


def _report(c, alg, cls, e, rbar, gamma, cap, u, mult, zstar, sha256):
    answers = {
        "c": c, "algebra_dim": alg, "nilpotency_class": cls, "dim_E": e, "dim_Rbar": rbar,
        "dim_gamma_c1_E": gamma, "dim_gamma_c1_E_cap_Rbar": cap, "dim_U": u,
        "multiplier_dim": mult, "zcstar_dim": zstar, "capable_c": zstar == 0,
    }
    return {"answers": answers, "sha256": sha256}


# Answers and sha256 of the output text of the seed code.  Graded outputs are
# the exact ``nlie graded`` stdout bytes; multiplier outputs are
# json.dumps(report.to_dict()); the catalog output is the ``nlie bounds``
# JSON line for the sorted rows.
PINNED: dict[str, dict] = {
    "graded(2,4,6)": _graded(
        2, 4, 6, 3294, 2624, 670,
        "73d6fbbd0501a2572d3596a7890fbeed3febd3637f1d98b9cc01ae78cdebc80a"),
    "graded(3,4,5)": _graded(
        3, 4, 5, 1396, 1016, 380,
        "259d4443fca1823fd90ecf6c4e6b7b6b0c3e989bf89cf07a398cd1268764a562"),
    "graded(3,5,4)": _graded(
        3, 5, 4, 1225, 735, 490,
        "29dcdfdc66b16bdcc11843b83819b908b7748565eecd399e6b6e55275c9170bc"),
    "graded(2,2,9)": _graded(
        2, 2, 9, 532, 476, 56,
        "448bed0ba5cc633984e24b340b93b5f2c25c20eec9df70b3e89deec0bf91007c"),
    "H(2,2) c=2": _report(
        2, 5, 2, 90, 85, 80, 80, 60, 20, 1,
        "499601261c2a40d9c24b543aaa1e4c9d9647cdcee109a0e9434fc32ea098ecaa"),
    "H(2,3) c=1": _report(
        1, 7, 2, 91, 84, 85, 84, 70, 14, 1,
        "926754a13b54fd455d11a1f9fd811ea0fbf33db83d52d6b7255b5590caa03430"),
    "H(3,1) c=2": _report(
        2, 4, 2, 13, 9, 9, 9, 0, 9, 0,
        "35c15b975c714825dd7d0c67a7becbd0f9f82b0f155bd10ec2710c58cc995fc6"),
    "H(2,1) c=3": _report(
        3, 3, 2, 14, 11, 9, 9, 0, 9, 0,
        "3c4cacdcea8eb39463771979776c687b211bba39084043ee0c7107c76a5aaeb2"),
    "H(2,1)+A(2) c=2": _report(
        2, 5, 2, 90, 85, 80, 80, 57, 23, 0,
        "d7cb671569869e0d77701d381cebc3fdc8dc9484bac3943860551987914ff8f6"),
    "catalog c_max=2": {
        "answers": {"rows": 472, "violations": 0},
        "sha256": "c8e11a448de22e21d83cd37be5a43f25284835d903b08e1d23b4129b1d795280",
    },
}


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[], tuple[dict, str]]


@dataclass(frozen=True)
class Attempt:
    job: str
    seconds: float
    answers: dict | None
    sha256: str | None
    error: str | None


def clear_memo() -> None:
    free_algebra.clear_caches()
    multiplier.clear_cache()


def run_job(job: Job, before: Callable[[], None] = clear_memo) -> Attempt:
    """Run one job cold and time only the call itself."""
    before()
    start = time.perf_counter()
    try:
        answers, text = job.call()
    except Exception as exc:  # a raising job is a counted failure, not a crash
        seconds = time.perf_counter() - start
        return Attempt(job.name, seconds, None, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Attempt(job.name, seconds, answers, hashlib.sha256(text.encode()).hexdigest(), None)


def _graded_job(n: int, d: int, w: int) -> Job:
    argv = ["graded", "-n", str(n), "-d", str(d), "-w", str(w)]

    def call() -> tuple[dict, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"nlie {' '.join(argv)} exited {status}")
        text = out.getvalue()
        return json.loads(text), text

    return Job(f"graded({n},{d},{w})", call)


def _case_algebra(hz):
    return heisenberg(*hz) if hz is not None else direct_sum(heisenberg(2, 1), abelian(2, 2))


def _multiplier_job(label: str, algebra, c: int, lifts) -> Job:
    def call() -> tuple[dict, str]:
        answers = multiplier.multiplier_report(algebra, c, lifts=lifts).to_dict()
        return answers, json.dumps(answers)

    return Job(f"{label} c={c}", call)


def _catalog_job(algebras) -> Job:
    def call() -> tuple[dict, str]:
        checks = bounds.run_catalog(CATALOG_C_MAX, algebras=algebras)
        text = json.dumps([ck.to_dict() for ck in checks]) + "\n"
        return {"rows": len(checks), "violations": len(bounds.violations(checks))}, text

    return Job(f"catalog c_max={CATALOG_C_MAX}", call)


def prepare(workload: str, seed: int) -> list[Job]:
    """Build the seeded inputs of a workload (its set-up)."""
    rng = random.Random(seed)
    if workload == "oracle":
        layers = list(GRADED_LAYERS)
        rng.shuffle(layers)
        return [_graded_job(*ndw) for ndw in layers]
    if workload == "algebra":
        jobs = []
        for label, hz, c in MULTIPLIER_CASES:
            algebra = _case_algebra(hz)
            lifts = multiplier.random_lifts(algebra, rng.randrange(2**31))
            jobs.append(_multiplier_job(label, algebra, c, lifts))
        algebras = bounds.catalog_algebras()
        rng.shuffle(algebras)
        jobs.append(_catalog_job(algebras))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# -- independent oracles ---------------------------------------------------------


def _mobius(k: int) -> int:
    result, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            result = -result
        p += 1
    return -result if k > 1 else result


def witt(d: int, w: int) -> int:
    """Necklace (Witt) number: dimension of the weight-w layer of the free
    Lie algebra on d generators."""
    total = sum(_mobius(k) * d ** (w // k) for k in range(1, w + 1) if w % k == 0)
    return total // w


def witt_heisenberg_multiplier(m: int, c: int) -> int:
    """Closed form of dim M^(c)(H(2, m)) from Witt numbers."""
    if c == 1:
        return 2 if m == 1 else comb(2 * m, 2) - 1
    if m == 1:
        return witt(2, c + 1) + witt(2, c + 2)
    return witt(2 * m, c + 1)


def oracle_values(workload: str) -> dict[str, list[tuple[str, str, int]]]:
    """Per job name: (answer field, source, value) from an independent route."""
    out: dict[str, list[tuple[str, str, int]]] = {}
    if workload == "oracle":
        for n, d, w in GRADED_LAYERS:
            if n == 2:
                out[f"graded({n},{d},{w})"] = [("dim", "witt", witt(d, w))]
    elif workload == "algebra":
        for label, hz, c in MULTIPLIER_CASES:
            if hz is None:
                continue
            n, m = hz
            checks = [("multiplier_dim", "heisenberg_multiplier_dim",
                       multiplier.heisenberg_multiplier_dim(n, m, c))]
            if n == 2:
                checks.append(("multiplier_dim", "witt", witt_heisenberg_multiplier(m, c)))
            out[f"{label} c={c}"] = checks
    return out


# -- checking --------------------------------------------------------------------


def check_attempt(
    attempt: Attempt, pinned: dict[str, dict], oracles: dict[str, list[tuple[str, str, int]]]
) -> list[str]:
    """Every way one attempt differs from its pinned and oracle values."""
    if attempt.error is not None:
        return [f"{attempt.job}: raised {attempt.error}"]
    want = pinned.get(attempt.job)
    if want is None:
        return [f"{attempt.job}: no pinned value"]
    problems = []
    for key, value in want["answers"].items():
        got = attempt.answers.get(key)
        if got != value:
            problems.append(f"{attempt.job}: {key} = {got!r}, pinned {value!r}")
    if attempt.sha256 != want["sha256"]:
        problems.append(f"{attempt.job}: output sha256 {attempt.sha256} differs from pinned")
    for key, source, value in oracles.get(attempt.job, []):
        got = attempt.answers.get(key)
        if got != value:
            problems.append(f"{attempt.job}: {key} = {got!r}, {source} gives {value!r}")
    return problems


def failures(attempts: list[Attempt], pinned: dict[str, dict], oracles) -> list[list[str]]:
    """The problems of each failed attempt (one list per failed attempt)."""
    found = [check_attempt(a, pinned, oracles) for a in attempts]
    return [p for p in found if p]

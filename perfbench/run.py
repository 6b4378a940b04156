#!/usr/bin/env python3
"""Benchmark of the blockgraph pipeline on four workloads.

    python3 perfbench/run.py --workload paper66 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

Run it from anywhere inside a checkout; it imports ``src/blockgraph`` from
the same checkout and fails if that is missing.  Only the standard library
is used, in one single-threaded process (``aut-groups`` forks one child per
design, one at a time).

Workloads (each loads one layer and leaves another idle, so a gain can be
shown where it is expected and "no change" checked elsewhere):

- ``paper66``: main66, appendixA66, appendixB66 through the in-process
  equivalent of ``report --aut --check-paper``.  Every layer is active;
  automorphism search and refinement are most of it.
- ``geometric``: PG(3,5), PG(4,3), AG(4,3) without automorphisms, starting
  from blocklist text made by ``geometry.py``.  Graph build, SRG check and
  clique enumeration dominate; autgroup and perms are idle.
- ``many-cliques``: AG(2,5), whose block graph is complete 6-partite with
  15,625 maximum cliques.  Per-clique analysis and rendering dominate.
- ``aut-groups``: fano, ag23, PG(3,2), pg23 (block graph K13), AG(3,3),
  PG(3,3) with automorphisms, each in a forked child under a wall budget and
  a memory limit.  Group closure and automorphism search are the cost.

The inputs do not depend on ``--seed``; it is recorded with the results.
With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer self-times and exact counts of a traced run (see tracing.py),
plus the tracing overhead against untraced passes of the same run.

The end-to-end times are scaled to a reference speed of the host: a fixed
kernel (calibrate.py) is timed between every two timed pieces of work, and
each piece's time is multiplied by ``calibrate.REFERENCE_S`` over the mean
of the kernel times around it.  On a shared host whose speed drifts by tens
of percent over minutes this keeps the medians of repeated runs within a few
percent; the unscaled medians are kept in the record under perfbench/out/.
An aut-groups design stopped by its wall budget counts its budget, unscaled.
The per-layer times of the traced run are not scaled.

Every result is checked against oracles.py; a mismatch makes the exit code 1.
The last line of standard output is one JSON object; a fuller record with
the environment, quartiles and per-design outcomes goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import monotonic, perf_counter
from typing import NamedTuple

import calibrate
import geometry
import oracles
from tracing import COUNT_METRICS, TIME_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("paper66", "geometric", "many-cliques", "aut-groups")
SAMPLES = 17  # fresh-import and cold-CLI samples per end-to-end run
IMPORT_SAMPLES = 5
CLI_ARGS = ("-m", "blockgraph.cli", "report", "--builtin", "main66", "--aut", "--check-paper")
CLI_EXPECTED = (
    "maximum cliques: 80 = 66 canonical + 14 non-canonical",
    "graph automorphism group: order 39",
)

# aut-groups wall budgets in seconds, each far from the design's time at the
# time of writing so that its outcome is the same on every run: fano 0.5 s,
# ag23 4 s, PG(3,2) 32 s (nearly all closure); pg23, AG(3,3) and PG(3,3) did
# not finish in minutes.  The last three budgets are the targets of the
# stabilizer-chain work: K13 under 1 s, AG(3,3) and PG(3,3) under 2 s.
AUT_BUDGETS = {"fano": 4, "ag23": 16, "PG(3,2)": 6, "pg23": 1, "AG(3,3)": 2, "PG(3,3)": 2}
AUT_MEMORY_MB = 512
KILL_GRACE_S = 10


class Job(NamedTuple):
    name: str
    text: str | None  # blocklist text, or None for a builtin design
    aut: bool
    check_paper: bool
    budget: float | None = None


def make_jobs(workload: str) -> list[Job]:
    """The workload's designs; generating their text is not timed."""
    def generated(name, family, d, p, aut=False):
        return Job(name, geometry.design_text(family, d, p), aut, False, AUT_BUDGETS.get(name))

    if workload == "paper66":
        return [Job(name, None, True, True) for name in ("main66", "appendixA66", "appendixB66")]
    if workload == "geometric":
        return [generated("PG(3,5)", "projective", 3, 5), generated("PG(4,3)", "projective", 4, 3),
                generated("AG(4,3)", "affine", 4, 3)]
    if workload == "many-cliques":
        return [generated("AG(2,5)", "affine", 2, 5)]
    return [
        Job("fano", None, True, False, AUT_BUDGETS["fano"]),
        Job("ag23", None, True, False, AUT_BUDGETS["ag23"]),
        generated("PG(3,2)", "projective", 3, 2, aut=True),
        Job("pg23", None, True, False, AUT_BUDGETS["pg23"]),
        generated("AG(3,3)", "affine", 3, 3, aut=True),
        generated("PG(3,3)", "projective", 3, 3, aut=True),
    ]


def pipeline(job: Job):
    """One design through the full report pipeline; returns what gets checked."""
    # importable only once main() has put the checkout's src/ on sys.path
    from blockgraph import catalog, design, report

    if job.text is None:
        built = catalog.builtin_design(job.name)
        generators = report.builtin_generators(built, job.name)
    else:
        built = design.parse_design(job.text, "blocklist", name=job.name)
        generators = []
    rep = report.build_report(
        built,
        generators=generators or None,
        generator_source="embedded generators" if generators else "",
        include_aut=job.aut,
    )
    text = report.render_text(rep)
    structured = report.render_structured(rep)
    claims = report.check_paper_claims(rep, job.name) if job.check_paper else None
    return structured, text, claims


def traced_pipeline(job: Job, tracer: Tracer | None):
    if tracer is None:
        return pipeline(job)
    return tracer.span("bench.design", pipeline, job)


class Tally:
    """Design analyses attempted, the problems found, and budget overruns.

    A wrong result or an exception is a failure; a design stopped by its
    budget or memory limit is an overrun, an expected outcome that counts
    in the printed fail_ratio but not in the ``failed`` of the result line.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.overruns = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], outcome: str = "ok") -> None:
        self.attempted += 1
        self.overruns += outcome in ("over-budget", "over-memory")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for line in problems:
                print(f"MISMATCH {line}", file=sys.stderr)


class Gauge:
    """Times the calibration kernel between timed pieces of work.

    A piece's time is multiplied by ``calibrate.REFERENCE_S`` over the mean
    of the kernel times right before and after it, which cancels the drift
    of the shared host's speed (see calibrate.py).
    """

    def __init__(self):
        self.samples = [calibrate.seconds()]

    def factor(self) -> float:
        """Time the kernel again; the factor for the work since the last time."""
        self.samples.append(calibrate.seconds())
        return calibrate.REFERENCE_S * 2 / (self.samples[-2] + self.samples[-1])


def in_process_pass(jobs, tracer, tally, gauge=None) -> dict:
    seconds = 0.0
    if tracer is not None:
        tracer.reset()
    for job in jobs:
        if tracer is not None:
            tracer.request = job.name
        start = perf_counter()
        try:
            out = traced_pipeline(job, tracer)
        except Exception as exc:  # one broken design must not hide the others
            traceback.print_exc()
            tally.record([f"{job.name}: raised {exc!r}"])
            continue
        seconds += perf_counter() - start
        tally.record(oracles.mismatches(job.name, *out))
    record = {"seconds": seconds}
    if gauge is not None:
        record["scaled"] = seconds * gauge.factor()
    if tracer is not None:
        record.update(self=tracer.self_times(), counts=dict(tracer.counts), spans=tracer.spans)
    return record


class BudgetStop(BaseException):
    """Raised in an aut-groups child when its wall budget runs out."""


def _budget_stop(signum, frame):
    raise BudgetStop


def _child(job: Job, tracer: Tracer | None, memory_bytes: int) -> dict:
    resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))
    signal.signal(signal.SIGALRM, _budget_stop)
    if tracer is not None:
        tracer.reset(job.name)
    problems: list[str] = []
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, job.budget)
    try:
        out = traced_pipeline(job, tracer)
        signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "ok"
    except BudgetStop:
        outcome = "over-budget"
    except MemoryError:
        outcome = "over-memory"
    except Exception as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        traceback.print_exc()
        outcome, problems = "error", [f"{job.name}: raised {exc!r}"]
    seconds = perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    if outcome == "ok":
        problems = oracles.mismatches(job.name, *out)
        if problems:
            outcome = "wrong"
    record = {"outcome": outcome, "seconds": seconds, "problems": problems}
    if tracer is not None:
        record.update(self=tracer.self_times(), counts=dict(tracer.counts), spans=tracer.spans)
    return record


def _read_until(fd: int, deadline: float) -> tuple[bytes, bool]:
    """Read fd to end of file; the flag is True if the deadline passed first."""
    chunks = []
    while True:
        remaining = deadline - monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            return b"".join(chunks), True
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks), False
        chunks.append(chunk)


def run_in_child(job: Job, tracer: Tracer | None) -> dict:
    """Analyse one design in a forked child under its budget and memory limit."""
    vm_pages = int(Path("/proc/self/statm").read_text().split()[0])
    memory_bytes = vm_pages * os.sysconf("SC_PAGE_SIZE") + AUT_MEMORY_MB * 2**20
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            payload = json.dumps(_child(job, tracer, memory_bytes)).encode()
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
        except BaseException:
            traceback.print_exc()
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        data, late = _read_until(read_fd, monotonic() + job.budget + KILL_GRACE_S)
    finally:
        os.close(read_fd)
    if late:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    if data and status == 0:
        record = json.loads(data)
    elif late:
        record = {"outcome": "over-budget", "seconds": job.budget + KILL_GRACE_S, "problems": []}
    else:
        record = {"outcome": "error", "seconds": 0.0,
                  "problems": [f"{job.name}: child exited with status {status}"]}
    record["rss_mb"] = usage.ru_maxrss / 1024
    return record


def forked_pass(jobs, tracer, tally, gauge=None) -> dict:
    """Each design in its own child; counts only from designs that finished.

    With a gauge, the time of a design that finished is scaled; that of a
    design stopped by its budget is the wall-clock budget and is not.
    """
    designs, selfs, counts, spans = {}, Counter(), Counter(), []
    scaled = 0.0
    for job in jobs:
        rec = run_in_child(job, tracer)
        tally.record(rec["problems"], rec["outcome"])
        if gauge is not None:
            factor = gauge.factor()
            scaled += rec["seconds"] * (factor if rec["outcome"] == "ok" else 1.0)
        designs[job.name] = {"outcome": rec["outcome"], "seconds": rec["seconds"],
                             "budget_s": job.budget, "rss_mb": rec["rss_mb"]}
        if tracer is not None and "self" in rec:
            # budget-stopped designs contribute their partial time, but not
            # their counts, which depend on how far they got
            selfs.update(rec["self"])
            if rec["outcome"] == "ok":
                counts.update(rec["counts"])
            base = len(spans)
            spans.extend([m, s, e, p + base if p >= 0 else p, r] for m, s, e, p, r in rec["spans"])
    record = {"seconds": sum(d["seconds"] for d in designs.values()), "designs": designs}
    if gauge is not None:
        record["scaled"] = scaled
    if tracer is not None:
        record.update(self=dict(selfs), counts=dict(counts), spans=spans)
    return record


def measured_passes(one_pass, jobs, tally, seconds: float, samples: int):
    """Untraced passes for about ``seconds``; returns (passes, setup, cli, gauge).

    A pass starts only if it is expected to end by the deadline, and there
    is at least one.  Then come ``samples`` pairs of a fresh import and a
    cold CLI run, so that the subprocesses take no time from the passes.
    Every pass record has a ``scaled`` and an unscaled ``seconds``; every
    sample is a pair (scaled, unscaled).
    """
    passes, setup, cli = [], [], []
    gauge = Gauge()
    deadline = perf_counter() + seconds
    lap = 0.0
    while not passes or perf_counter() + lap <= deadline:
        start = perf_counter()
        gc.collect()
        passes.append(one_pass(jobs, None, tally, gauge))
        lap = perf_counter() - start
    for _ in range(samples):
        import_s = fresh_import_seconds("blockgraph")
        cli_s = cli_cold_seconds(tally)
        factor = gauge.factor()
        setup.append((import_s * factor, import_s))
        cli.append((cli_s * factor, cli_s))
    return passes, setup, cli, gauge


def traced_passes(one_pass, jobs, tally, seconds: float, tracer: Tracer):
    """Untraced and traced passes alternating for about ``seconds``.

    Alternating makes drift in the machine's speed affect both alike, so
    their difference is the tracing overhead.  Spans of the first traced
    pass are kept.  Returns (plain, traced).
    """
    plain, traced = [], []
    deadline = perf_counter() + seconds
    lap = 0.0
    while not plain or perf_counter() + lap <= deadline:
        start = perf_counter()
        gc.collect()
        plain.append(one_pass(jobs, None, tally))
        with tracer.installed():
            gc.collect()
            record = one_pass(jobs, tracer, tally)
        if traced:
            del record["spans"]
        traced.append(record)
        lap = perf_counter() - start
    return plain, traced


# ---------------------------------------------------------------------------
# fresh interpreters

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def fresh_import_seconds(module: str) -> float:
    """Time to import ``module`` in a new interpreter, measured inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def cli_cold_seconds(tally: Tally) -> float:
    """Wall time of one ``report --aut --check-paper`` run; exit 0 required."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *CLI_ARGS], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    problems = [f"cli: exit status {proc.returncode}"] if proc.returncode else []
    problems += [f"cli: output lacks {want!r}" for want in CLI_EXPECTED if want not in proc.stdout]
    problems += [f"cli: {line}" for line in proc.stderr.splitlines() if line.startswith("FAIL")]
    tally.record(problems)
    return elapsed


# ---------------------------------------------------------------------------
# results

def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    if len(ordered) > 1:
        p25, _, p75 = statistics.quantiles(ordered, n=4)
    else:
        p25 = p75 = ordered[0]
    return {"median": statistics.median(ordered), "p25": p25, "p75": p75, "n": len(ordered)}


def scaled_summary(pairs) -> dict:
    """Summary of the scaled times, with the unscaled median beside it."""
    return {**summary([p[0] for p in pairs]),
            "unscaled_median": statistics.median(p[1] for p in pairs)}


def end_to_end(passes, setup, cli, forked: bool) -> dict:
    if forked:
        finished = [d["rss_mb"] for rec in passes for d in rec["designs"].values()
                    if d["outcome"] == "ok"]
        peak = max(finished or [d["rss_mb"] for rec in passes for d in rec["designs"].values()])
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "pass_s": (scaled_summary([(rec["scaled"], rec["seconds"]) for rec in passes]), "s"),
        "setup_s": (scaled_summary(setup), "s"),
        "peak_rss_mb": ({"median": peak, "n": 1}, "MB"),
        "cli_cold_s": (scaled_summary(cli), "s"),
    }


def per_layer(traced, plain, imports) -> dict:
    counts = traced[0]["counts"]
    if any(rec["counts"] != counts for rec in traced[1:]):
        print("warning: exact counts differ between traced passes", file=sys.stderr)
    out = {m: (summary([rec["self"].get(m, 0.0) for rec in traced]), "s") for m in TIME_METRICS}
    for metric in COUNT_METRICS:
        unit = "B" if metric == "report.structured_bytes" else "count"
        out[metric] = ({"median": counts.get(metric, 0), "n": len(traced)}, unit)
    candidates = counts.get("autgroup.candidates", 0)
    ratio = counts.get("autgroup.generators", 0) / candidates if candidates else 0.0
    out["autgroup.generators_per_candidate"] = ({"median": ratio, "n": len(traced)}, "ratio")
    out["cli.import_s"] = (summary(imports), "s")
    overhead = (statistics.median(rec["seconds"] for rec in traced)
                - statistics.median(rec["seconds"] for rec in plain))
    out["trace.overhead_s"] = ({"median": overhead, "n": len(traced)}, "s")
    return out


def cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    jobs = make_jobs(workload)
    forked = workload == "aut-groups"
    one_pass = forked_pass if forked else in_process_pass
    tally = Tally()
    if not (forked or quick):
        one_pass(jobs, None, tally)  # warm-up
    calibration = None
    if trace:
        imports = [fresh_import_seconds("blockgraph.cli") for _ in range(IMPORT_SAMPLES)]
        plain, passes = traced_passes(one_pass, jobs, tally, seconds, Tracer())
        metrics = per_layer(passes, plain, imports)
    else:
        passes, setup, cli, gauge = measured_passes(
            one_pass, jobs, tally, seconds, 1 if quick else SAMPLES)
        metrics = end_to_end(passes, setup, cli, forked)
        calibration = {**summary(gauge.samples), "reference_s": calibrate.REFERENCE_S}
    result = {
        "workload": workload,
        "settings": {"seed": seed, "seconds": seconds, "trace": int(trace), "quick": quick,
                     "designs": [job.name for job in jobs]},
        "environment": environment(),
        "metrics": {name: {**stats, "unit": unit} for name, (stats, unit) in metrics.items()},
        "calibration_s": calibration,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "overruns": tally.overruns,
        "fail_ratio": (tally.failed + tally.overruns) / tally.attempted,
        "problems": tally.problems,
    }
    if forked:
        result["settings"].update(budgets_s=AUT_BUDGETS, memory_limit_mb=AUT_MEMORY_MB)
        result["designs"] = [rec["designs"] for rec in passes]
    OUT.mkdir(exist_ok=True)
    stem = f"{'quick-' if quick else ''}{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        spans = passes[0]["spans"]
        t0 = spans[0][1] if spans else 0.0
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            [[m, s - t0, e - t0, p, r] for m, s, e, p, r in spans]) + "\n")
    return result


def print_summary(result: dict) -> None:
    s = result["settings"]
    print(f"workload {result['workload']}  seed {s['seed']}  seconds {s['seconds']}  "
          f"trace {s['trace']}  designs {', '.join(s['designs'])}")
    for name, m in result["metrics"].items():
        spread = f"  (p25 {m['p25']:.4f}, p75 {m['p75']:.4f})" if "p25" in m else ""
        if "unscaled_median" in m:
            spread += f"  unscaled {m['unscaled_median']:.4f}"
        print(f"  {name:36s} {m['median']:>14.6g} {m['unit']:5s}  n={m['n']}{spread}")
    print(f"  fail_ratio {result['fail_ratio']:.4g} = ({result['failed']} failed"
          f" + {result['overruns']} budget or memory overruns) / {result['attempted']} analyses")
    for name, d in (result.get("designs") or [{}])[-1].items():
        print(f"  {name:10s} {d['outcome']:12s} {d['seconds']:8.3f} s of budget {d['budget_s']} s,"
              f" peak {d['rss_mb']:.1f} MB")
    cal = result["calibration_s"]
    if cal:
        print(f"  calibration kernel {cal['median']:.5f} s (n={cal['n']}, p25 {cal['p25']:.5f},"
              f" p75 {cal['p75']:.5f}); times are scaled to {cal['reference_s']} s")
    env = result["environment"]
    print(f"  env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu_model']},"
          f" commit {env['git_commit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of every workload, under a minute; never compare its numbers")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if not (SRC / "blockgraph" / "__init__.py").is_file():
        print(f"error: {SRC / 'blockgraph'} not found; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.quick:
        results = [run(w, args.seed, 0, False, True) for w in WORKLOADS]
        for result in results:
            print_summary(result)
        correct = all(r["failed"] == 0 for r in results)
        print(json.dumps({"quick": True, "correct": correct}))
        return 0 if correct else 1

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print_summary(result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

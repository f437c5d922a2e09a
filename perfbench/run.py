#!/usr/bin/env python3
"""Cold-process benchmark of graphasym's four user paths.

    python3 perfbench/run.py --workload diagonal_fit --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload in turn

Run it from anywhere inside a checkout; it uses the checkout's ``src/``.
Each step of a job runs in a fresh interpreter (``job.py``), so every
``lru_cache`` starts cold, as on every ``graphasym`` command.  One client
runs jobs in a closed loop, the next starting when the previous has exited,
until the next one would overrun ``--seconds``.  Five probe processes
before the first job only import graphasym; they and every job step give
set-up samples.

End-to-end metrics (``--trace 0``), each the median over the run:
  setup_s      spawn of the interpreter until ``import graphasym`` returns
  job_s        return of that import until the process has exited, summed
               over the job's steps
  peak_rss_mb  peak resident memory of a job process (``wait4``)
setup_s and job_s are wall times scaled to a reference speed (see `Speed`);
the summary also prints the unscaled medians.  Jobs that exit nonzero or
whose output fails its check count as failed; the summary prints
``fail_ratio`` = failed / attempted.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of ``layertrace.METRICS``: medians of the traced jobs' times, scaled
like job_s, and counts, which must agree exactly between traced jobs.
``trace.overhead_s`` is the traced minus the untraced median of the job's
own time, measured inside the job process.

Correctness: the first job's output is checked by an independent route
(``check.py``, untimed); whenever the inputs are the reference inputs its
digest must also equal the one in ``reference.json``.  Every later job must
reproduce the first job's digest.

The summary lines and the results file ``.perfbench_out/<workload>-seed<n>-
trace<t>.json`` record Python, mpmath and its backend, nproc and the git
SHA.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
# a run must end within 180 s; children still running at its deadline are killed
RUN_DEADLINE_S = 165.0
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
# the calibration time that defines the reference speed (see `Speed`)
CALIBRATION_REF_S = 0.1


class Speed:
    """Calibration runs between processes, to scale times to one reference speed.

    A shared 2-core VM was measured drifting by up to 1.6x in speed, in
    phases of seconds to minutes, separately on each core, and unevenly
    across kinds of work.  Calibrations run in this process before the first
    child and after every child, on the same CPU (see `main`): the mixed one
    for set-up times, the workload's own (workloads.CALIBRATIONS) for job
    times.  A time is scaled by CALIBRATION_REF_S over the faster of the
    calibrations either side of it (a short burst inflates one calibration;
    the faster one is the better estimate of the phase the child ran in).
    That tracks the speed a child saw only while children are short next to
    the drift, which is why every job takes about a second.  Scaled times
    are seconds on a machine where the calibration takes CALIBRATION_REF_S,
    about that VM's uncontended time; the unscaled ones are kept in the
    results file.
    """

    def __init__(self, job_calibration) -> None:
        self.calibrations = {"setup": workloads.cal_mixed, "job": job_calibration}
        self.samples: dict[str, list[float]] = {kind: [] for kind in self.calibrations}
        self._measure()

    def _measure(self) -> None:
        took = {}
        for kind, fn in self.calibrations.items():
            if fn not in took:
                t0 = time.perf_counter()
                fn()
                took[fn] = time.perf_counter() - t0
            self.samples[kind].append(took[fn])

    def scale(self) -> dict[str, float]:
        """Scales for set-up and job times of the child that just ended."""
        self._measure()
        return {kind: CALIBRATION_REF_S / min(s[-2:]) for kind, s in self.samples.items()}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Child:
    """One process of job.py, timed from outside and reaped with wait4."""

    def __init__(self, args: list[str], work: Path, deadline: float):
        err = work / "stderr.txt"
        with err.open("wb") as err_fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "job.py"), *args],
                stdout=subprocess.PIPE, stderr=err_fh, env=_env(), cwd=ROOT,
            )
            timer = threading.Timer(max(0.0, deadline - t_spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.t_exit = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        self.exit_code = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.stderr = err.read_text(errors="replace").strip().splitlines()[-1:]
        self.report = None
        if self.exit_code == 0:
            try:
                self.report = json.loads(out.splitlines()[-1])
            except (IndexError, ValueError):
                self.stderr.append("no report on stdout")
        self.setup_s = self.report["t_setup"] - t_spawn if self.report else None


class Job:
    """One job: its steps run one after another, each in a fresh process."""

    def __init__(self, name: str, params: dict, work: Path, traced: bool, deadline: float):
        self.children: list[Child] = []
        for step in range(len(workloads.JOBS[name])):
            child = Child(
                ["job", name, str(step), json.dumps(params), str(work), str(int(traced))],
                work, deadline,
            )
            self.children.append(child)
            if child.report is None:
                self.error = f"step {step} exited {child.exit_code}: {' '.join(child.stderr)}"
                break
        else:
            self.error = None
        self.traced = traced
        self.setups = [c.setup_s for c in self.children if c.report]
        if self.error:
            return
        reports = [c.report for c in self.children]
        self.job_s = sum(c.t_exit - c.report["t_setup"] for c in self.children)
        self.own_s = sum(r["t_end"] - r["t_start"] for r in reports)
        self.peak_rss_mb = max(c.peak_rss_mb for c in self.children)
        self.digest = workloads.digest(" ".join(r["digest"] for r in reports))
        self.outputs = [work / f"output-{i}.txt" for i in range(len(reports))]
        if traced:
            self.layers = layertrace.metrics([r["layers"] for r in reports])


def _probe(work: Path, speed: Speed, deadline: float) -> list[tuple[float, float]]:
    """A set-up sample, (wall, scale), from a process that only imports graphasym."""
    probe = Child(["probe"], work, deadline)
    scale = speed.scale()["setup"]
    return [(probe.setup_s, scale)] if probe.report else []


def _check(name: str, params: dict, outputs: list[Path], deadline: float) -> str | None:
    """None if the output passes the independent check, else the reason."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "check.py"), name, json.dumps(params), *map(str, outputs)],
            capture_output=True, text=True, env=_env(), cwd=HERE,
            timeout=max(0.1, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return "check timed out"
    if proc.returncode == 0:
        return None
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    return lines[0] if proc.stdout.strip() else (lines or ["check failed"])[-1]


def _reference_digest(name: str, params: dict) -> str | None:
    if params != workloads.params(name, workloads.REFERENCE_SEED):
        return None
    return json.loads((HERE / "reference.json").read_text())[name]


def _tail(values: list[float]) -> str:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.4f}"
    return "no percentile has 10 samples beyond it"


def environment() -> dict:
    mp = subprocess.run(
        [sys.executable, "-c", "import mpmath; print(mpmath.__version__, mpmath.libmp.BACKEND)"],
        capture_output=True, text=True, env=_env(), timeout=10,
    ).stdout.split() or ["absent", "none"]
    return {
        "python": platform.python_version(),
        "mpmath": mp[0],
        "mpmath_backend": mp[-1],
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    params = workloads.params(name, seed)
    reference = _reference_digest(name, params)
    work = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    min_jobs = 4 if trace else 3
    setups: list[tuple[float, float]] = []  # (wall, scale)
    jobs: list[Job] = []
    failures: list[str] = []
    first = good = None
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        Child(["warm"], work, deadline)  # compiles bytecode; not a sample
        speed = Speed(workloads.CALIBRATIONS[name])
        t0 = time.monotonic()
        for _ in range(SETUP_PROBES):
            setups += _probe(work, speed, deadline)
        longest = 0.0
        while time.monotonic() < deadline and (
            len(jobs) < min_jobs or time.monotonic() - t0 + longest <= seconds
        ):
            started = time.monotonic()
            job = Job(name, params, work, trace and len(jobs) % 2 == 1, deadline)
            scale = speed.scale()
            job.scale = scale["job"]
            jobs.append(job)
            setups += [(s, scale["setup"]) for s in job.setups]
            reason = job.error
            if reason is None:
                if first is None:
                    first = job.digest
                    reason = _check(name, params, job.outputs, deadline)
                    if reason is None and reference is not None and first != reference:
                        reason = "digest differs from the reference"
                    if reason is None:
                        good = first
                elif job.digest != first:
                    reason = "output differs from the first job's"
                elif good is None:
                    reason = "output equals the first job's, which failed its check"
            if reason:
                failures.append(reason)
            longest = max(longest, time.monotonic() - started)
        elapsed = time.monotonic() - t0
    finally:
        for spans in work.glob("spans-*.jsonl"):
            spans.replace(OUT / f"{name}-seed{seed}.{spans.name}")
        shutil.rmtree(work, ignore_errors=True)

    ok = [j for j in jobs if j.error is None]
    plain = [j for j in ok if not j.traced]
    traced = [j for j in ok if j.traced]
    samples = {
        "setup_s": [wall * scale for wall, scale in setups],
        "job_s": [j.job_s * j.scale for j in plain],
        "peak_rss_mb": [j.peak_rss_mb for j in plain],
        "setup_wall_s": [wall for wall, _ in setups],
        "job_wall_s": [j.job_s for j in plain],
        "job_scale": [j.scale for j in plain],
        "calibration_s": speed.samples,
    }
    result = {
        "workload": name,
        "seed": seed,
        "params": params,
        "seconds": seconds,
        "elapsed_s": elapsed,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "digest": first,
        "samples": samples,
        "environment": environment(),
    }
    correct = not failures and bool(plain)
    if trace:
        metrics = {}
        if traced:
            try:
                metrics = layertrace.median_metrics([
                    {k: v * j.scale if layertrace.METRICS.get(k) == "s" else v
                     for k, v in j.layers.items()}
                    for j in traced
                ])
            except ValueError as exc:
                failures.append(str(exc))
                correct = False
            if plain:
                metrics["trace.overhead_s"] = (
                    statistics.median(j.own_s * j.scale for j in traced)
                    - statistics.median(j.own_s * j.scale for j in plain)
                )
        correct = correct and bool(traced)
        result["metrics"] = {
            k: {"value": metrics.get(k, 0), "unit": u} for k, u in layertrace.METRICS.items()
        }
    else:
        result["metrics"] = {
            k: {"value": statistics.median(samples[k]) if samples[k] else 0.0, "unit": u}
            for k, u in END_TO_END.items()
        }
    result["correct"] = correct
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def summary_lines(result: dict) -> list[str]:
    r = result
    lines = [
        f"workload {r['workload']} seed {r['seed']} params {json.dumps(r['params'])}",
        "environment " + " ".join(f"{k}={v}" for k, v in r["environment"].items()),
    ]
    for key in ("setup_s", "job_s", "peak_rss_mb", "setup_wall_s", "job_wall_s"):
        values = r["samples"][key]
        if values:
            unit = "MB" if key == "peak_rss_mb" else "s"
            lines.append(
                f"  {key:<12} median={statistics.median(values):.4f} {unit:<3} "
                f"{_tail(values)} n={len(values)}"
            )
    lines.append(
        f"  fail_ratio   {r['failed'] / r['attempted']:.4f} ({r['failed']} of {r['attempted']} jobs)"
    )
    for reason in r["failures"]:
        lines.append(f"  failure: {reason}")
    if "trace.spans" in r["metrics"]:
        for key, m in r["metrics"].items():
            lines.append(f"  {key:<28} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphasym" / "__init__.py").is_file():
        print(f"no graphasym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # the jobs, probes and calibration share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        print("\n".join(summary_lines(r)))
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results) else 1
    r = results[0]
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": r["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark job in a fresh interpreter, so every lru_cache starts cold.

    python3 perfbench/job.py probe
    python3 perfbench/job.py warm
    python3 perfbench/job.py job <workload> <step> <params-json> <work-dir> <trace 0|1>

The only work before ``import graphasym`` is importing ``sys`` and ``time``,
so the monotonic time at which that import returns marks the end of set-up
(the parent records when it spawned the process; CLOCK_MONOTONIC is shared
by all processes).  The step's stdout is captured, hashed and written to
``<work-dir>/output-<step>.txt``; the report, one JSON line, is the only
thing this process writes to its own stdout.  With
tracing on, layer spans are recorded around the calls into each graphasym
module and summarised in the report; the spans themselves are written to
``<work-dir>/spans-<step>.jsonl`` after the job's end time is taken.
"""
import sys
import time

import graphasym  # noqa: F401  (set-up ends when this returns)

T_SETUP = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        print(json.dumps({"t_setup": T_SETUP}))
        return 0
    if argv[0] == "warm":
        # compile every module a job imports, so no job pays for it
        import graphasym.cli  # noqa: F401
        import layertrace  # noqa: F401
        import workloads  # noqa: F401

        return 0
    _, name, step, params_json, work_dir, trace = argv
    import workloads

    work = Path(work_dir)
    tracer = None
    if trace == "1":
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    buf = io.StringIO()
    t_start = time.monotonic()
    with contextlib.redirect_stdout(buf):
        workloads.JOBS[name][int(step)](json.loads(params_json), work)
    t_end = time.monotonic()
    out = buf.getvalue()
    report = {
        "t_setup": T_SETUP,
        "t_start": t_start,
        "t_end": t_end,
        "digest": workloads.digest(out),
    }
    (work / f"output-{step}.txt").write_text(out)
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.write_spans(work / f"spans-{step}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Independent check of one job's output; run untimed, in its own process.

    python3 perfbench/check.py <workload> <params-json> <output-file>...

The outputs of a job's steps are joined in order before checking.
Exits 0 when the output passes, 1 with a one-line reason when it does not.
"""
import json
import sys
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    name, params_json, *out_paths = argv
    out = "".join(Path(p).read_text() for p in out_paths)
    try:
        workloads.CHECKS[name](json.loads(params_json), out)
    except workloads.CheckFailed as exc:
        print(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One pass of a workload in a fresh interpreter.

Usage: child.py WORKLOAD SEED MODE WORK_DIR SPAWN_TIME

MODE is ``setup`` (import ``qge``, write the inputs, stop), ``run`` (then
call ``qge.cli.main`` once per command of the workload) or ``trace`` (the
same, with every public ``qge`` function wrapped in a span).  SPAWN_TIME is
the parent's ``time.monotonic()`` just before it started this process; on
Linux that clock is shared by all processes, so set-up time includes the
interpreter start.  The result goes to WORK_DIR/result.json and, when
traced, the spans to WORK_DIR/spans.jsonl.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, mode, work, spawn_t = sys.argv[1:6]
    work = Path(work)
    sys.path.insert(0, str(ROOT / "src"))
    import qge  # noqa: F401  (the whole package, as the CLI entry point loads it)
    import qge.cli

    from tracer import Tracer
    from workloads import THREAD_VARS, commands, write_inputs

    in_dir, out_dir = work / "in", work / "out"
    write_inputs(workload, int(seed), in_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "setup_s": time.monotonic() - float(spawn_t),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    if mode != "setup":
        tracer = Tracer() if mode == "trace" else None
        if tracer is not None:
            result["wrapped_functions"] = tracer.install()
        codes, errors = [], []
        start = time.perf_counter()
        for argv in commands(workload, in_dir, out_dir):
            try:
                codes.append(qge.cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
                errors.append(f"{argv[0]}: SystemExit({exc.code!r})")
            except Exception as exc:  # an uncaught exception is a failed operation
                codes.append(None)
                errors.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        result["wall_s"] = time.perf_counter() - start
        result["codes"] = codes
        result["errors"] = errors
        if tracer is not None:
            tracer.write(work / "spans.jsonl")
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

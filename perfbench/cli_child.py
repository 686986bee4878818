"""Run one palmnmf CLI command as ``python -m palmnmf.cli`` would, and
time its solves.

Usage: python3 perfbench/cli_child.py TRACE DUMP.json CLI-ARGS...

Times the import of ``palmnmf.cli`` and every call of the ``solve`` that
the CLI imported, runs the command, writes the timings to DUMP.json and
exits with the command's exit code. A solve's timing is its calibrated
CPU seconds and its iterations, with the calibration kernel run just
before and just after it in this process; ``calibration_s`` in the dump
is the CPU time those kernel runs took, which is not part of the
command's cost. With TRACE 1 the per-layer tracer is installed too and
its layer stats go into the dump; the solve timings then include its
overhead. ``palmnmf`` must be importable, for example through
PYTHONPATH.
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    import palmnmf.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    traced, dump = sys.argv[1] == "1", Path(sys.argv[2])
    tracer = Tracer() if traced else None
    solves = []
    calibration_s = []
    try:
        with tracer or nullcontext():
            solve = palmnmf.cli.solve

            def timed_solve(*args, **kwargs):
                c0 = time.process_time()
                from calibration import calibrated, kernel_s

                before = kernel_s()
                t0 = time.process_time()
                result = solve(*args, **kwargs)
                secs = time.process_time() - t0
                after = kernel_s()
                calibration_s.append(time.process_time() - c0 - secs)
                solves.append((calibrated(secs, (before, after)), result.iterations))
                return result

            palmnmf.cli.solve = timed_solve
            try:
                code = palmnmf.cli.main(sys.argv[3:])
            finally:
                palmnmf.cli.solve = solve
    finally:
        stats = {label: stat.to_dict() for label, stat in tracer.stats.items()} if traced else {}
        dump.write_text(json.dumps({"import_s": import_s, "solves": solves,
                                    "calibration_s": sum(calibration_s), "stats": stats}))
    sys.exit(code)

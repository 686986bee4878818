"""Time the import of palmnmf plus a workload's instance generation in a
fresh process, and print the CPU seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

if __name__ == "__main__":
    start = time.process_time()
    import palmnmf  # noqa: F401  (timed: the import is part of set-up)
    from workloads import make_instance

    make_instance(sys.argv[1], int(sys.argv[2]))
    print(repr(time.process_time() - start))

"""Time one set-up in a fresh interpreter: a cold `import dpsched`, then the
workload's input preparation; then time the reference kernel of calib.py
three times in the same interpreter.  Prints {"import_s": ..., "prep_s": ...,
"kernel_s": <median of the three>}.

Usage, from the repository root with src on PYTHONPATH:
    python3 perfbench/setup_probe.py <workload> <seed>
"""
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    import dpsched  # noqa: F401  (the import is what is timed)
    t1 = perf_counter()
    import json
    import statistics
    import sys

    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]]().prepare(int(sys.argv[2]))
    t2 = perf_counter()
    from calib import Kernel

    kernel = Kernel()
    kernel_s = statistics.median(kernel.seconds() for _ in range(3))
    print(json.dumps({"import_s": t1 - t0, "prep_s": t2 - t1, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()

"""Time one benchmark set-up in a fresh interpreter.

Set-up is the flexidrop package import plus the workload's input
generation. Prints the set-up seconds and the median time of the
reference work (``hostspeed.py``) done right after it; not before it,
because the reference work imports numpy, which set-up must pay for.
``run.py`` starts this script a few times per run, with ``src`` on
PYTHONPATH, scales each set-up time to the nominal CPU and reports the
median as ``setup_s``.

    python3 bench/setup_time.py <workload> <seed> <workdir>
"""
import statistics
import sys
import time
from pathlib import Path

from hostspeed import reference_time

REFERENCES = 50


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[name].setup(seed, workdir)
    seconds = time.perf_counter() - start
    reference_s = statistics.median(reference_time() for _ in range(REFERENCES))
    print(repr(seconds), repr(reference_s))


if __name__ == "__main__":
    main()

"""Time one fresh set-up and print it in seconds.

Set-up is importing qfsplit, generating the workload from its seed, and
building every job's inputs.  ``run.py`` starts this script in new
interpreters so that each sample pays the import again.  The time is scaled
to reference speed by a yardstick run right after it (see yardstick.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

YARDSTICK_S = 0.02

if __name__ == "__main__":
    start = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    jobs = workloads.generate(sys.argv[1], int(sys.argv[2]))
    inputs = [workloads.prepare(job) for job in jobs]
    elapsed = time.perf_counter() - start
    import yardstick

    print(repr(elapsed * yardstick.scale(yardstick.run(YARDSTICK_S))))

"""Print one set-up time: from before `import coadorbits` until the workload's caches are warm.

    python3 perfbench/probe.py orbit-rank

It prints the set-up time in seconds and then the median time of the
reference kernel, in ns, over five runs before the set-up and five after
it. run.py starts this in a fresh process several times per run and
reports the median of the set-up times scaled by their kernel times as
setup_s.
"""

import sys
from time import perf_counter

import reference
from source import use_checkout_source

before = reference.time_kernel(5)
start = perf_counter()
use_checkout_source()
import workloads  # noqa: E402  (imports coadorbits from the checkout)

workloads.warm(workloads.WORKLOADS[sys.argv[1]])
seconds = perf_counter() - start
kernel_ns = sorted(before + reference.time_kernel(5))
print(seconds, (kernel_ns[4] + kernel_ns[5]) // 2)

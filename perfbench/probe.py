"""Set-up probe of the sweep benchmark: import the package and write one
workload's inputs, then exit. run.py times this process from launch to exit;
the median over several probes is the benchmark's setup_s.

    python3 perfbench/probe.py <workload> <size> <seed> <directory>
"""

import sys
from pathlib import Path

from workloads import WORKLOADS, import_package, write_inputs

if __name__ == "__main__":
    name, size, seed, directory = sys.argv[1:]
    import_package()
    write_inputs(WORKLOADS[name][size], int(seed), Path(directory))

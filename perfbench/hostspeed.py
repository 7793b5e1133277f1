"""How fast the host runs at the moment, from a fixed reference task.

The benchmark runs on shared machines whose speed follows the load other
tenants put on the host, from one second to the next and over minutes.
On a 2-vCPU Xeon VM (2.0 GHz) the mean operation time of whole
24-second runs of one workload differed by 25-35 % from run to run,
every operation of a run shifting together.  The reference task is a
child interpreter that imports numpy, timed from spawn to exit: process
start, imports and page faults, the kind of work each workload's
operations do.  On that VM it tracked the three workloads better than
in-process loops did (interpreter, small-object and short-array loops
left 10-20 % of the spread; the child left about 5 %).

The benchmark times the task between operations and scales each
operation's wall time by :func:`speed_factor`, which turns it into the
time the same work would have taken with the task at its nominal time.
The task runs no code of the library, so a change to the library moves
the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# The task's typical time on the VM above, so that scaled times are
# close to the raw times of a typical run there.
NOMINAL_S = 0.2


def reference_seconds() -> float:
    """Wall time of a child interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def speed_factor(samples: list) -> float:
    """Nominal over measured reference time: multiply a wall time taken
    while ``samples`` were taken by this to scale it to nominal speed."""
    return NOMINAL_S / statistics.median(samples)

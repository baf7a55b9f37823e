"""Write this interpreter's peak resident set size at exit.

Every benchmark child imports this through PYTHONPATH. ru_maxrss from
wait4 cannot give the child's peak: at exec the kernel folds the memory
high-water mark of the spawning process into the child's, so it reports
the benchmark's own peak whenever that is higher. VmHWM in
/proc/self/status covers the executed program only. The value, in KiB,
goes to the file named by NUSETS_BENCH_RSS.
"""

import atexit
import os


def _write_peak_rss():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(os.environ["NUSETS_BENCH_RSS"], "w") as out:
                    out.write(line.split()[1])
                return


if os.environ.get("NUSETS_BENCH_RSS"):
    atexit.register(_write_peak_rss)

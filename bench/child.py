"""Fresh-interpreter child: time `import lgradial`, then optionally one CLI command.

Usage: python3 bench/child.py [COMMAND --key value ... | --probe JSON]

With `--probe '{"seed": N, "small": false}'` it instead replays, traced,
the lower-layer calls of the cli_readme commands and reports their spans.

Prints the command's own output, then one JSON line with import_s, the
command's start and end on the shared monotonic clock, its exit code and
this process's peak resident set (KiB).
"""

import json
import resource
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import lgradial  # noqa: E402,F401 - this import is what is timed
t1 = time.perf_counter()

report = {"import_s": t1 - t0}
if sys.argv[1:2] == ["--probe"]:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.workloads import cli_probe
    report["spans"] = cli_probe(**json.loads(sys.argv[2]))
elif len(sys.argv) > 1:
    from lgradial.cli import main
    start = time.perf_counter()
    report["exit"] = main(sys.argv[1:])
    report.update(start=start, end=time.perf_counter())
report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stdout.flush()
print(json.dumps(report))

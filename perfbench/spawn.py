"""Start CLI children one at a time and report wall time, exit code and max RSS.

The benchmark does not start children itself: a child's ``ru_maxrss`` starts
at the resident size of the process it was forked from, so children forked
from the benchmark (which holds numpy, scipy and a loaded dataset) would
report the benchmark's size. This small process starts them instead. It reads
one JSON request per line on stdin, ``{"argv": [...], "out": PATH, "err":
PATH}``, runs the child to completion and answers with one JSON line,
``{"seconds": ..., "code": ..., "max_rss_kib": ...}``. It exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"seconds": seconds, "code": proc.returncode,
                                     "max_rss_kib": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

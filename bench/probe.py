"""Set-up probe: `import hydrasim` plus the workload's set-up calls, timed.

    python3 bench/probe.py JOB.json

Runs in a fresh process so the import and the cold sigmoid LUT are paid, as a
user's first command pays them.  Prints {"setup_s": seconds} on stdout.
"""

import json
import sys
import time

job = json.loads(open(sys.argv[1], encoding="utf-8").read())
T0 = time.perf_counter()

import common  # noqa: E402

hs = common.import_hydrasim()
common.setup_calls(hs, job["spec"], job["paths"])
print(json.dumps({"setup_s": time.perf_counter() - T0}))

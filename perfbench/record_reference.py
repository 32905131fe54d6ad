"""Record the reference totals the gate compares against on the default seed.

    python3 perfbench/record_reference.py

Scores every instance of every workload once, at the default seed, and
writes perfbench/reference_seed1.json with each instance's input digest and
per-metric totals.  Rerun it only when a workload's inputs change, on a
commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for workload in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        try:
            manifest, rows = run.prepare(workload, run.DEFAULT_SEED, workdir, None)
            manifest.update(seconds=0, trace=0)
            res = run.run_worker(manifest, workdir, time.monotonic() + run.TIME_LIMIT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res["failed"] or res["check_failures"]:
            print(res["failures"] + res["check_failures"], file=sys.stderr)
            return 1
        reference[workload] = {
            name: {"digest": digest, "totals": res["totals"][name]}
            for name, *_, digest in rows
        }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

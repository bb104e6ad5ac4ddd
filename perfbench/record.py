"""Record the result digests ``run.py`` checks at the default seed.

Run from the repository root after a change that is meant to alter
simulated results::

    python3 perfbench/record.py

It runs every workload once, untraced, and rewrites ``expected.json``.
"""

from __future__ import annotations

import json
import sys
import time

from run import (DEFAULT_SEED, HERE, ROOT, WORKLOADS, BenchError,
                 remove_work, run_job)


def main() -> int:
    work = ROOT / ".perfbench_work" / "record"
    digests = {}
    try:
        for workload in WORKLOADS:
            report = run_job(workload, DEFAULT_SEED, work / workload,
                             traced=False, deadline=time.monotonic() + 600,
                             spans=None)
            if report["violations"]:
                print(f"{workload}: {report['violations']}", file=sys.stderr)
                return 1
            digests[workload] = report["digest"]
    except BenchError as error:
        print(f"record: {error}", file=sys.stderr)
        return 1
    finally:
        remove_work(work)
    (HERE / "expected.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

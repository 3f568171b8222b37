"""Record exit code and stdout of every fixed-flag CLI job into expected.json.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run from the checkout root on the code the benchmark should hold later
versions to.  The benchmark fails any job whose output differs from the
record, so re-recording is a deliberate change of what counts as correct.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import child  # noqa: E402
import workloads  # noqa: E402

KNOWN_RED = "check-weil --p 2 --s 2 --lemma 5"


def main() -> int:
    workloads.write_weight_files()
    jobs = {}
    for argv in workloads.all_cli_argvs():
        rc, out = child.run_job(workloads.Job(name=workloads.job_name(argv), argv=argv))
        if rc not in (0, 2):  # a usage error or crash is a broken job list
            raise SystemExit(f"{workloads.job_name(argv)}: exit {rc}")
        jobs[workloads.job_name(argv)] = {"argv": list(argv), "exit": rc, "stdout": out}
    # criterion 04 at p = 2 is recorded as it stands: the bound is false there
    if "violations=0\n" in jobs[KNOWN_RED]["stdout"]:
        raise SystemExit(f"{KNOWN_RED} reports no violations; expected > 0")
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json: phi_norm of every family job at the default seed.

    python3 perfbench/make_reference.py

Run from the repository root, on a commit whose solutions are trusted. The
benchmark compares each job's phi_norm against this table to a relative
1e-12, for every kernel equal to the default seed's.
"""

import json
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main():
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    try:
        table = workloads.reference_table(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.WORK.rmdir()
    jobs = table.pop("jobs")
    lines = [f" {json.dumps(k)}: {json.dumps(v)}," for k, v in table.items()]
    lines += [' "jobs": {']
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in sorted(jobs.items())]
    lines[-1] = lines[-1].rstrip(",")
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + "\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    main()

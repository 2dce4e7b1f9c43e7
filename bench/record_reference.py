#!/usr/bin/env python3
"""Record the CLI outputs that the batch workloads are checked against.

    python3 bench/record_reference.py

Runs every CLI task of the batch workloads once and writes their CSV rows to
bench/reference.json.  Record at a commit whose outputs are trusted; a change
that claims a gain must not re-record.
"""

import json
import os
import sys
import tempfile

import run

run._import_package()

import poslinops.cli  # noqa: E402

import workloads  # noqa: E402


def main():
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as workdir:
        out = os.path.join(workdir, "out.csv")
        for argv in (a for tasks in workloads.CLI_TASKS.values() for a in tasks):
            rc = poslinops.cli.main(list(argv) + ["--out", out])
            if rc not in (0, 1):
                sys.exit(f"error: {workloads.task_id(argv)} exited {rc}")
            with open(out) as fh:
                lines = fh.read().splitlines()
            reference[workloads.task_id(argv)] = {
                "exit_status": rc,
                "header": lines[0].split(","),
                "rows": [line.split(",") for line in lines[1:]],
            }
    entries = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"wrote {len(reference)} references to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()

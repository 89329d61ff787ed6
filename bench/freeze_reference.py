#!/usr/bin/env python3
"""Freeze the reference seed's op outputs of every workload under reference/.

    python3 bench/freeze_reference.py [workload ...]

The frozen files are what every benchmark run compares against. Regenerate
them only for a change that is meant to alter mecp's records or reports, and
say so in that change.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import REFERENCE_SEED, WORKLOADS, build_ops, normalize, reference_path


def main(argv) -> int:
    run.import_mecp()
    for workload in argv or WORKLOADS:
        ops = build_ops(workload, REFERENCE_SEED, run.OUT_DIR)
        outputs = {op.key: normalize(workload, op.run()) for op in ops}
        doc = {
            "workload": workload,
            "seed": REFERENCE_SEED,
            "commit": run.git_commit(),
            "outputs": outputs,
        }
        path = reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)} ({len(outputs)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Record the sha256 of each workload's report for a range of seeds.

Usage:
    python3 bench/record_digests.py --seeds 0-31 [--workloads verify-small,...]

A report is recorded only if no row is a counterexample and the
independent cross-check agrees on every row.  Writes ``digests.json``
beside this file and keeps the entries of other workloads, K values and
seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

from collect import seed_range
from run import DIGESTS, cross_check, import_program, run_request
from workloads import WORKLOADS, build_inputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args()

    ib = import_program()
    if ib is None:
        return 2
    table = json.loads(DIGESTS.read_text())
    for name in args.workloads.split(","):
        w = WORKLOADS[name]
        for seed in args.seeds:
            req = run_request(ib, w, build_inputs(w, seed, w.k), keep_rows=True)
            bad = req.bad + cross_check(req.rows)
            if bad:
                print(f"{name} seed {seed}: not recorded, failed rows:", *bad, sep="\n  ", file=sys.stderr)
                return 1
            table.setdefault(name, {}).setdefault(str(w.k), {})[str(seed)] = req.digest
            print(f"{name} seed {seed}: {req.digest}")
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

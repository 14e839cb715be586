"""Write digests.json: SHA-256 digests of every seed-independent result.

Run once, at the commit whose outputs are the reference, from the
repository root:

    PYTHONPATH=src python3 bench/freeze.py

Every result must first pass its closed-form and oracle checks; the
self-test then cross-checks the toy-size digests against naive oracles.
"""

import json
import sys

import abelianwords
import abelianwords.cli

import oracle
import workloads
from worker import DIGESTS


def freeze(size):
    digests = {}
    for name in workloads.WORKLOADS:
        for op in workloads.Workload(abelianwords, name, 0, size).ops:
            try:
                result = op.run()
            except Exception as exc:  # report every failing operation
                print(f"{size} {op.name}: raised {exc!r}", file=sys.stderr)
                continue
            problem = op.check(result)
            if problem is not None:
                sys.exit(f"{size} {op.name}: {problem}")
            if op.canon is not None:
                digests[op.name] = oracle.digest(op.canon(result))
    return digests


def main():
    table = {size: freeze(size) for size in workloads.SIZES}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Compare the output digests of two benchmark result files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Result files are the ``.perfbench/<workload>-seed<n>-trace<t>.json``
documents ``run.py`` writes.  A change that claims only a host-time
gain must leave every simulated statistic unchanged: exit status 0
means the two runs produced identical digests for every call, 1 lists
the calls whose simulated output moved, and 2 means the files are not
comparable (different workload or seed).
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def differences(before: dict, after: dict) -> Tuple[List[str], List[str]]:
    """(problems that make the files incomparable, calls that differ)."""
    problems = [
        f"{key}: {before.get(key)!r} vs {after.get(key)!r}"
        for key in ("workload", "seed")
        if before.get(key) != after.get(key)
    ]
    if problems:
        return problems, []
    a = dict(map(tuple, before["call_digests"]))
    b = dict(map(tuple, after["call_digests"]))
    moved = [label for label in a if a[label] != b.get(label)]
    moved += [label for label in b if label not in a]
    return [], moved


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (load(path) for path in argv)
    problems, moved = differences(before, after)
    if problems:
        for problem in problems:
            print(f"not comparable: {problem}")
        return 2
    if moved:
        for label in moved:
            print(f"digest differs: {label}")
        print(f"{len(moved)} of {len(before['call_digests'])} calls differ")
        return 1
    print(f"digests equal: {before['workload']} seed {before['seed']}, "
          f"{len(before['call_digests'])} calls, {before['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

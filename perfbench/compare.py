#!/usr/bin/env python3
"""Compares paired runs of a parent commit and a change on one workload.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the last output line of perfbench/run.py for each run,
one per line, in pair order (run i of the parent was paired with run i
of the change, alternating which side ran first). For every metric it
prints each side's quartiles, the no-regression verdict against the
bound in BENCHMARK.json, and whether the pair rule grants a gain.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    bad = [i for i, r in enumerate(runs) if not r["correct"]]
    if bad:
        sys.exit("%s: runs %s failed their correctness checks" % (path, bad))
    return runs


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for name in parent[0]["metrics"]:
        meta = declared[name]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        line = "%-32s parent %s | change %s" % (
            name,
            "/".join("%.4g" % v for v in stats.quartiles(p)),
            "/".join("%.4g" % v for v in stats.quartiles(c)))
        if "bound" in meta:
            line += " | %s" % stats.regression_verdict(
                p, c, meta["better"], meta["bound"])
        if len(p) >= 10 and len(p) == len(c):
            v = stats.pair_verdict(p, c, meta["better"])
            line += " | wins %d/%d%s" % (v["wins"], v["pairs"],
                                         " GAIN" if v["gain"] else "")
        print(line)
    print("failed operations: parent %d, change %d (quartiles are "
          "q1/median/q3)" % (sum(r["failed"] for r in parent),
                             sum(r["failed"] for r in change)))


if __name__ == "__main__":
    main()

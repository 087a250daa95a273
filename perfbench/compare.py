#!/usr/bin/env python3
"""Compares two benchmark records written by `run.py --record FILE`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base value, new value and relative change. Refuses
(exit 2) to pair records that are not like for like: a different
workload, input size, trace mode, core count or thread budget. Warns
when a record's figures were checked only against a serial run of the
same build (a seed without a committed reference), since a deterministic
change to the output passes that check.
"""

import json
import sys

LIKE_FOR_LIKE = ("workload", "size", "input", "trace", "available_parallelism",
                 "thread_budget")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv[1:])
    differ = [k for k in LIKE_FOR_LIKE if base["context"][k] != new["context"][k]]
    if differ:
        for k in differ:
            print(f"compare: refusing to pair records: {k} is "
                  f"{base['context'][k]!r} vs {new['context'][k]!r}", file=sys.stderr)
        return 2
    for rec in (base, new):
        ctx = rec["context"]
        print(f"seed {ctx['seed']} rev {ctx['git_rev']} load "
              f"{ctx['loadavg_before'][0]:.2f}->{ctx['loadavg_after'][0]:.2f} "
              f"correct {rec['result']['correct']}")
        if ctx.get("reference") == "serial-only":
            print(f"compare: warning: seed {ctx['seed']} has no committed reference; its "
                  "figures were checked only against a serial run of the same build",
                  file=sys.stderr)
    for name, m in base["result"]["metrics"].items():
        b = m["value"]
        n = new["result"]["metrics"][name]["value"]
        change = f"{(n - b) / b:+.2%}" if b else "n/a"
        print(f"{name:34s} {b:14.6g} {n:14.6g} {change:>9s} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

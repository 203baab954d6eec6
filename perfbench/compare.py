#!/usr/bin/env python3
"""Compare two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds results written by `perfbench/run.py --record DIR`
(trace 0 runs). Runs pair by workload and seed. Each metric's verdict is
one of:

  regressed   the median paired change is worse than the metric's bound in
              BENCHMARK.json and at least 9 in 10 pairs got worse
  improved    the median paired change is better than the bound, at least
              9 in 10 pairs got better, and the medians differ by more
              than the base's own quartile spread
  unchanged   the median paired change is within the bound, and so is the
              base's own spread
  unresolved  anything else: the runs disagree, or are too noisy to tell

fail_frac (failed / attempted answers) is compared per workload; any rise
is a regression. Exit status: 0, or 1 on any regression, or 2 when the
sets cannot be compared: different host identity (core count, OCaml
version), or more than one build (commit, dirty flag, source digest) in
one set. Runs that started on a host already loaded to its core count
are left out of the pairing and listed.
"""

import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(path, name)) as f:
            r = json.load(f)
        if r.get("trace") == 0:
            runs[(r["workload"], r["identity"]["seed"])] = r
    return runs


def build_of(r):
    i = r["identity"]
    return (i["commit"], i["dirty"], i["source_sha256"])


def host_of(r):
    i = r["identity"]
    return (i["nproc"], i["ocaml"])


def refuse(msg):
    print(f"compare: refused: {msg}")
    sys.exit(2)


def spread(xs):
    if len(xs) < 2:
        return math.inf
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def verdict(base, new, bound, better):
    """base, new: paired values. Positive change = worse."""
    sign = 1 if better == "lower" else -1
    changes = [sign * (n - b) / b for b, n in zip(base, new)]
    m = statistics.median(changes)
    need = math.ceil(0.9 * len(changes))
    worse = sum(c > 0 for c in changes)
    better_n = sum(c < 0 for c in changes)
    iqr = spread(base) * statistics.median(base)
    if m > bound and worse >= need:
        return "regressed", m
    if (m < -bound and better_n >= need
            and abs(statistics.median(new) - statistics.median(base)) > iqr):
        return "improved", m
    if abs(m) <= bound and spread(base) <= bound:
        return "unchanged", m
    return "unresolved", m


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_set(argv[0]), load_set(argv[1])
    if not base or not new:
        refuse("a set holds no trace-0 results")
    if len({host_of(r) for r in list(base.values()) + list(new.values())}) != 1:
        refuse("host identity (nproc, OCaml version) differs between runs")
    for label, runs in (("base", base), ("new", new)):
        if len({build_of(r) for r in runs.values()}) != 1:
            refuse(f"the {label} set mixes builds (commit, dirty, source digest)")
    busy = sorted(k for k, r in {**base, **new}.items()
                  if r["identity"]["loadavg_start"] >= r["identity"]["nproc"])
    for w, seed in busy:
        print(f"left out: {w} seed {seed} started on a busy host")
    keys = sorted(k for k in base if k in new and k not in busy)
    if not keys:
        refuse("no workload/seed pairs in common")
    failed = False
    print(f"{'workload':<22} {'metric':<16} {'pairs':>5} {'base':>12} "
          f"{'new':>12} {'change':>8}  verdict")
    for w in sorted({k[0] for k in keys}):
        pairs = [k for k in keys if k[0] == w]
        for m in spec["end_to_end"]:
            b = [base[k]["metrics"][m["name"]]["value"] for k in pairs]
            n = [new[k]["metrics"][m["name"]]["value"] for k in pairs]
            v, change = verdict(b, n, m["bound"], m["better"])
            failed |= v == "regressed"
            print(f"{w:<22} {m['name']:<16} {len(pairs):>5} "
                  f"{statistics.median(b):>12.5g} {statistics.median(n):>12.5g} "
                  f"{change:>+8.1%}  {v}")
        fb = sum(base[k]["failed"] for k in pairs) / sum(base[k]["attempted"] for k in pairs)
        fn = sum(new[k]["failed"] for k in pairs) / sum(new[k]["attempted"] for k in pairs)
        v = "regressed" if fn > fb else "unchanged" if fn == fb else "improved"
        failed |= v == "regressed"
        print(f"{w:<22} {'fail_frac':<16} {len(pairs):>5} {fb:>12.5g} {fn:>12.5g} "
              f"{'':>8}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

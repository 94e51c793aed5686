#!/usr/bin/env python3
"""Compare two sets of runs written by sweep.sh against the bounds in
../BENCHMARK.json.

    benchmark/compare.sh A.jsonl B.jsonl    A is the parent, B the change
    benchmark/compare.sh A.jsonl            spreads of one set only

For every (end-to-end metric, workload) pair it prints both medians over
the set's seeds, each set's spread (distance between the first and third
quartile as a share of the median), and how much worse B's median is than
A's as a share of A's median (the base of every ratio printed), beside the
metric's bound. Exit status 1 when B is worse than A by more than a bound,
when a spread other than `setup_s`'s exceeds its bound (the pair is then
unresolved, not unchanged), or when any operation failed.
"""
import json
import os
import statistics
import sys


def load(path):
    runs = {}
    failed = 0
    with open(path) as lines:
        for line in lines:
            run = json.loads(line)
            result = run["result"]
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                runs.setdefault((run["workload"], name), []).append(metric["value"])
    return runs, failed


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        contract = json.load(f)
    a, a_failed = load(argv[1])
    b, b_failed = load(argv[2]) if len(argv) == 3 else (None, 0)
    breaches = 0
    print(f"{'workload':<14}{'metric':<14}{'median A':>14}{'spread A':>10}"
          f"{'median B':>14}{'spread B':>10}{'B worse/A':>11}{'bound':>7}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = a.get((workload, name))
            if not va:
                continue
            med_a, spr_a = statistics.median(va), spread(va)
            verdict = "ok"
            unsteady = name != "setup_s" and spr_a > bound
            row = f"{workload:<14}{name:<14}{med_a:>14.6g}{spr_a:>10.2%}"
            if b is not None:
                vb = b[(workload, name)]
                med_b, spr_b = statistics.median(vb), spread(vb)
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (med_b - med_a) / med_a
                unsteady = unsteady or (name != "setup_s" and spr_b > bound)
                if worse > bound:
                    verdict = "REGRESSION"
                row += f"{med_b:>14.6g}{spr_b:>10.2%}{worse:>+11.2%}"
            else:
                row += f"{'':>14}{'':>10}{'':>11}"
            if unsteady and verdict == "ok":
                verdict = "UNRESOLVED (spread over bound)"
            breaches += verdict != "ok"
            print(f"{row}{bound:>7.0%}  {verdict}")
    if a_failed or b_failed:
        print(f"failed operations: A {a_failed}, B {b_failed}")
    sys.exit(1 if breaches or a_failed or b_failed else 0)


if __name__ == "__main__":
    main(sys.argv)

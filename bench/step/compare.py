#!/usr/bin/env python3
"""Compare bench_step results of a parent commit and a change.

Usage: python3 bench/step/compare.py PARENT CHANGE

PARENT and CHANGE are each a result file written by `run.py --out=...`
or a directory of them (every *.json inside); several files make a side
of several runs. For every end-to-end metric and workload it prints each
side's median and quartiles and one verdict:

  better / worse  the medians differ by more than the metric's bound
  same            the medians differ by no more than the bound
  unresolved      the parent's interquartile spread exceeds the bound and
                  the change does not beat every parent run

Bounds are those of BENCHMARK.json, plus result_err (10%) and
failed_frac, which may not increase at all; neither can be an end-to-end
metric of BENCHMARK.json because both are 0 on healthy runs. result_err
is `same` while every value on both sides is at most 1% of its check's
limit: that far down it is rounding (a reordered sum moves it freely),
not accuracy. Above that floor it depends on which particles a seed
samples, so when both sides ran the same seeds it is compared seed by
seed (median relative change). The exit status is 1 when any of these
metrics is worse or missing on the change.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULT_ERR_BOUND = 0.10
# Share of a check's limit below which result_err is rounding noise.
RESULT_ERR_FLOOR = 1e-2


def load_side(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        sys.exit("compare.py: no result files in " + arg)
    return [json.loads(f.read_text()) for f in files]


def by_seed(side, workload, section, metric):
    """[(seed, value)] of the runs that reported the metric."""
    out = []
    for result in side:
        entry = result["workloads"].get(workload, {}).get(section, {})
        v = entry.get(metric, {}).get("value")
        if v is not None:
            out.append((result["seed"], v))
    return out


def values(side, workload, section, metric):
    return [v for _, v in by_seed(side, workload, section, metric)]


def relative(c, p):
    if p == 0:
        return 0.0 if c == 0 else float("inf")
    return (c - p) / p


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, lower_is_better):
    """One of better / worse / same / unresolved, and the relative change
    of the medians (positive = larger)."""
    pm, cm = statistics.median(parent), statistics.median(change)
    rel = relative(cm, pm)
    worse_by = rel if lower_is_better else -rel
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / pm if pm else 0.0
    if lower_is_better:
        beats_all = max(change) < min(parent)
    else:
        beats_all = min(change) > max(parent)
    if spread > bound and not beats_all:
        return "unresolved", rel
    if worse_by > bound:
        return "worse", rel
    if worse_by < -bound:
        return "better", rel
    return "same", rel


def check_limit(side, workload):
    """Limit of the check result_err reports: the reference run's first."""
    for result in side:
        for c in result["workloads"].get(workload, {}).get("checks", []):
            if c["run"] == "reference":
                return c["limit"]
    return None


def result_err_verdict(parent, change, workload, verdict_and_rel):
    """result_err's verdict: `same` below the floor, else seed by seed
    when both sides ran the same seeds, else `verdict_and_rel`."""
    p = by_seed(parent, workload, "per_layer", "result_err")
    c = by_seed(change, workload, "per_layer", "result_err")
    limit = check_limit(change, workload)
    if limit is None:
        limit = check_limit(parent, workload)
    if limit is not None and max(v for _, v in p + c) <= RESULT_ERR_FLOOR * limit:
        return "same (below floor)", verdict_and_rel[1]
    pd, cd = dict(p), dict(c)
    if len(pd) != len(p) or pd.keys() != cd.keys():
        return verdict_and_rel
    rel = statistics.median(relative(cd[k], pd[k]) for k in pd)
    v = "worse" if rel > RESULT_ERR_BOUND else (
        "better" if rel < -RESULT_ERR_BOUND else "same")
    return v + " (by seed)", rel


def fmt(vs):
    q1, q3 = quartiles(vs)
    return "%.4g [%.4g, %.4g]" % (statistics.median(vs), q1, q3)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_side(sys.argv[1]), load_side(sys.argv[2])
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], "end_to_end", m["bound"], m["better"] == "lower")
               for m in bench["end_to_end"]]
    metrics.append(("result_err", "per_layer", RESULT_ERR_BOUND, True))
    print("parent: %d run(s), change: %d run(s); median [q1, q3]"
          % (len(parent), len(change)))
    print("%-16s %-22s %-32s %-32s %9s %6s  %s" % (
        "workload", "metric", "parent", "change", "change", "bound", "verdict"))
    failed = False
    for name, section, bound, lower in metrics:
        for w in workloads:
            p = values(parent, w, section, name)
            c = values(change, w, section, name)
            if not c:
                print("%-16s %-22s missing on the change" % (w, name))
                failed = True
                continue
            if not p:
                print("%-16s %-22s missing on the parent" % (w, name))
                continue
            v, rel = verdict(p, c, bound, lower)
            if name == "result_err":
                v, rel = result_err_verdict(parent, change, w, (v, rel))
            failed = failed or v.startswith("worse")
            print("%-16s %-22s %-32s %-32s %+8.1f%% %5.0f%%  %s" % (
                w, name, fmt(p), fmt(c), 100 * rel, 100 * bound, v))
    for w in workloads:
        p = values(parent, w, "end_to_end", "failed_frac")
        c = values(change, w, "end_to_end", "failed_frac")
        if not c or (p and max(c) > max(p)):
            v = "worse"
        elif p and max(c) < max(p):
            v = "better"
        else:
            v = "same"
        failed = failed or v == "worse"
        print("%-16s %-22s %-32s %-32s %9s %6s  %s" % (
            w, "failed_frac", fmt(p) if p else "-", fmt(c) if c else "-",
            "", "0", v))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Render BASELINE.md from the recorded sets beside this file.

    python3 benchmark/results/baseline.py

Reads set*.jsonl (written by ../run_set.sh) and ../../BENCHMARK.json,
writes BASELINE.md. Quartiles are `statistics.quantiles(n=4)`, the
acceptance driver's own method.
"""
import glob
import json
import os
import statistics as st
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
bench = json.load(open(os.path.join(HERE, "..", "..", "BENCHMARK.json")))
end_to_end = {m["name"]: m for m in bench["end_to_end"]}
workloads = [w["name"] for w in bench["workloads"]]

# Per set: untraced values per (workload, metric), the traced run's
# values per workload, and how many runs failed a check.
sets = []
for path in sorted(glob.glob(os.path.join(HERE, "set*.jsonl"))):
    untraced, traced, bad, runs = defaultdict(list), defaultdict(dict), 0, 0
    for line in open(path):
        r = json.loads(line)
        runs += 1
        bad += not r["correct"]
        for name, m in r["metrics"].items():
            if r["trace"] == 0:
                untraced[(r["workload"], name)].append(m["value"])
            else:
                traced[r["workload"]][name] = m["value"]
    sets.append((untraced, traced, bad, runs))


def fmt(x):
    a = abs(x)
    if a == 0:
        return "0"
    if a >= 1e6:
        return "%.4g" % x
    if a >= 100:
        return "%.1f" % x
    if a >= 1:
        return "%.3f" % x
    return "%.4g" % x


def spread(values):
    q1, q2, q3 = st.quantiles(values, n=4)
    return (q3 - q1) / abs(q2)


out = ["# Baseline", ""]
out.append(
    "Recorded with `benchmark/run_set.sh benchmark/results/setN.jsonl 1` (seeds 1-10 untraced, "
    "seed 1 traced, `run_seconds` = %d), %d times in a row on the commit that added the benchmark; "
    "host: 2 vCPU KVM guest (Intel Xeon, 2.1 GHz) with busy neighbours. %d runs, %d of them with a "
    "failed check. Rendered by `baseline.py`."
    % (bench["run_seconds"], len(sets), sum(s[3] for s in sets), sum(s[2] for s in sets))
)
out += ["", "## End-to-end metrics", ""]
out.append(
    "Per workload and metric: the median and quartiles over all untraced runs, the largest spread "
    "(IQR / median) any one set of ten showed - the figure the acceptance driver holds against the "
    "bound - and how far the set medians lie apart (max - min, as a share of their median)."
)
out += [
    "",
    "| workload | metric | unit | better | median | q1 | q3 | n | worst set spread | set medians apart | bound |",
    "|---|---|---|---|---|---|---|---|---|---|---|",
]
worst, apart = defaultdict(float), defaultdict(float)
for w in workloads:
    for name, m in end_to_end.items():
        per_set = [s[0][(w, name)] for s in sets if len(s[0][(w, name)]) >= 2]
        values = [v for vs in per_set for v in vs]
        q1, q2, q3 = st.quantiles(values, n=4)
        spreads = [spread(vs) for vs in per_set]
        medians = [st.median(vs) for vs in per_set]
        gap = (max(medians) - min(medians)) / abs(st.median(medians))
        worst[name] = max(worst[name], max(spreads))
        apart[name] = max(apart[name], gap)
        out.append(
            "| `%s` | `%s` | %s | %s | %s | %s | %s | %d | %.1f %% | %.1f %% | %d %% |"
            % (w, name, m["unit"], m["better"], fmt(q2), fmt(q1), fmt(q3), len(values),
               100 * max(spreads), 100 * gap, round(100 * m["bound"]))
        )
out += ["", "Largest over the six workloads:", ""]
out += ["| metric | worst set spread | set medians apart | bound |", "|---|---|---|---|"]
for name, m in end_to_end.items():
    out.append(
        "| `%s` | %.1f %% | %.1f %% | %d %% |"
        % (name, 100 * worst[name], 100 * apart[name], round(100 * m["bound"]))
    )
out += ["", "## Per-layer metrics", ""]
out.append(
    "From the traced run of each set (seed 1): the median, and min-max where the sets differ "
    "(`=`: identical in every set). Metrics a workload does not report (0: the layer did no work "
    "there) are left out."
)
for w in workloads:
    out += ["", "### `%s`" % w, "", "| metric | unit | median | min | max |", "|---|---|---|---|---|"]
    for m in bench["per_layer"]:
        values = [s[1][w].get(m["name"], 0) for s in sets if w in s[1]]
        if not values or all(v == 0 for v in values):
            continue
        same = min(values) == max(values)
        out.append(
            "| `%s` | %s | %s | %s | %s |"
            % (m["name"], m["unit"], fmt(st.median(values)),
               "=" if same else fmt(min(values)), "=" if same else fmt(max(values)))
        )
with open(os.path.join(HERE, "BASELINE.md"), "w") as f:
    f.write("\n".join(out) + "\n")

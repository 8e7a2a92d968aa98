"""Compare two sets of benchmark runs and give a verdict per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench_out/results.jsonl`` (copy that file after running the parent,
and again after running the change). For every workload and every end-to-end
metric in ``BENCHMARK.json`` the verdict is:

- unresolved: fewer than ``MIN_RUNS`` base runs, new runs or pairs, because
  the 9 in 10 rule and the quartile spread mean nothing on fewer;
- improved: the new side wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base runs' quartile spread;
- worse: the new median is worse than the base median by more than the
  metric's bound;
- unresolved: otherwise, when the base runs spread wider than the bound and
  not every new run beats every base run;
- unchanged: otherwise.

Runs are paired by seed where both sides ran it, else in file order. Beside
each workload, the medians of the per-layer metrics of the traced runs
(``--trace 1``) are listed with their change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 10


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in new}
    pairs = [(b, by_seed[b["seed"]]) for b in base if b["seed"] in by_seed]
    return pairs if pairs else list(zip(base, new))


def verdict(base: list[float], new: list[float], pairs, better: str, bound: float) -> str:
    if min(len(base), len(new), len(pairs)) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    q1, _, q3 = statistics.quantiles(base, n=4)
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if wins >= 0.9 * len(pairs) and abs(mn - mb) > q3 - q1:
        return "improved"
    if sign * (mb - mn) > bound * abs(mb):
        return "worse"
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if (q3 - q1) > bound * abs(mb) and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_records, new_records, spec) -> list[str]:
    lines = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = [r for r in base_records if r["workload"] == workload and not r["trace"]]
        new = [r for r in new_records if r["workload"] == workload and not r["trace"]]
        if not base or not new:
            lines.append(f"{workload}: no untraced runs on "
                         f"{'both sides' if not base and not new else 'one side'}")
            continue
        pairs = _pairs(base, new)
        lines.append(f"{workload}: {len(base)} base runs, {len(new)} new runs, {len(pairs)} pairs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            p = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            v = verdict(b, n, p, metric["better"], metric["bound"])
            mb, mn = statistics.median(b), statistics.median(n)
            lines.append(f"  {name:<14} {v:<11} {len(p)} pairs  {mb:.6g} -> {mn:.6g} "
                         f"{metric['unit']} ({100.0 * (mn - mb) / mb:+.1f}%, "
                         f"bound {100 * metric['bound']:.0f}%)")
        tb = [r for r in base_records if r["workload"] == workload and r["trace"]]
        tn = [r for r in new_records if r["workload"] == workload and r["trace"]]
        if tb and tn:
            lines.append("  per layer (medians of traced runs):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                b = statistics.median(r["metrics"][name]["value"] for r in tb)
                n = statistics.median(r["metrics"][name]["value"] for r in tn)
                change = f"{100.0 * (n - b) / b:+.1f}%" if b else "n/a"
                absent = any(name.startswith(a + ".") for r in tn for a in r.get("absent", ()))
                shown = "absent" if absent else f"{n:.6g}"
                lines.append(f"    {name:<44} {b:.6g} -> {shown} {metric['unit']} ({change})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result files.")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("\n".join(compare(load(args.base), load(args.new), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Item-by-item parity of the benchmark's datasets between two git refs.

Run from the root of a source checkout:

    python3 tools/parity.py BASE HEAD --workloads bloch lindblad --seeds 1-30 101-130

Each ref's ``src/`` is exported with ``git archive`` into a temporary
directory; no worktree is made and nothing is checked out. Three subprocesses,
all at once, each run every distinct item that ``perfbench.workloads.build``
gives for the chosen workloads and seeds, in-process through
``lgsim.cli.main``: one on the BASE tree and two on the HEAD tree, whose
datasets must agree byte for byte, as the CLI promises. Each dataset is
checked with ``perfbench.oracle``. Both ``perfbench`` modules are imported
from this checkout, unchanged, so the two trees are judged by the same oracle.

For each item it prints the exit code, status and oracle verdict on both
sides, whether the dataset bytes are identical, and for a dataset that moved
the largest |delta| of each column that changed. A text cell that moved only
in the numbers written in it (a selftest detail such as "max = 1.611e-15")
counts by the largest |delta| of those numbers, per row name (the row's first
cell, a selftest check name): the summary's "by_row". Status follows
``perfbench/run.py``: "ok", "exit1", "exit2", or "oracle" for an exit 0 whose
dataset the oracle rejects. The last line is one JSON summary; its
"head_reruns_differ" lists the items whose HEAD datasets differ between the
two runs. The exit code is 0 when no item changed its exit code, status or
oracle verdict and both HEAD runs agree, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(specs) -> list[int]:
    """Seeds from specs like "7" or "1-30", in order, without repeats."""
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        for s in range(int(lo), int(hi or lo) + 1):
            if s not in seeds:
                seeds.append(s)
    return seeds


def distinct_items(workload_names, seeds) -> list[tuple[str, object]]:
    """(workload, Item) for each distinct argv, in first-seen order."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    seen, out = set(), []
    for name in workload_names:
        for seed in seeds:
            for item in workloads.build(name, seed):
                if item.argv not in seen:
                    seen.add(item.argv)
                    out.append((name, item))
    return out


def export_src(ref: str, dest: Path) -> Path:
    """``src/`` of ``ref`` unpacked under ``dest`` by ``git archive``; returns its path."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_tree(src: str, out_dir: str, items_path: str) -> None:
    """Worker: run the items in ``items_path`` on the tree at ``src``; write records.json."""
    sys.path[:0] = [src, str(ROOT)]
    import lgsim.cli as cli
    from perfbench import oracle
    from perfbench.workloads import Item

    out = Path(out_dir)
    records = []
    for k, (argv, kind) in enumerate(json.loads(Path(items_path).read_text())):
        item, path = Item(tuple(argv), kind), out / f"{k}.out"
        sink, rc, error = io.StringIO(), None, None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = cli.main(list(argv) + ["--out", str(path)])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught exception is exit 1 for a CLI user
                error = f"{type(exc).__name__}: {exc}"
        status = "exit1" if error else {0: "ok", 1: "exit1"}.get(rc, "exit2")
        verdict = None
        if path.exists():
            try:
                oracle.check(item, str(path))
                verdict = "ok"
            except (oracle.OracleError, ValueError, KeyError, IndexError) as exc:
                verdict = f"{type(exc).__name__}: {exc}"
            if verdict != "ok" and status == "ok":
                status = "oracle"
        records.append({"rc": rc, "status": status, "error": error, "oracle": verdict})
    (out / "records.json").write_text(json.dumps(records))


def _number(cell):
    """cell as a float, or None if it is not a number (bools, None and text are not)."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def text_delta(base, head):
    """Largest |delta| of the numbers written in two text cells that differ in nothing else.

    None when the texts differ elsewhere too (in their words or in how many numbers they
    hold); NaN equals NaN.
    """
    b, h = str(base), str(head)
    if _NUMBER.sub("#", b) != _NUMBER.sub("#", h):
        return None
    pairs = zip(map(float, _NUMBER.findall(b)), map(float, _NUMBER.findall(h)))
    return max((abs(y - x) for x, y in pairs if x != y and not (x != x and y != y)), default=0.0)


def diff_datasets(base, head) -> dict:
    """Cell-by-cell differences of two datasets, each (columns, rows) as load_dataset gives.

    Returns {"shape": None or why the two cannot be compared, "columns": {name: {"changed":
    cells, "max_abs": |delta|, "max_rel": |delta| / |base|, "first": [base, head] of its
    first changed cell}}}, listing only columns with a changed cell. Two numbers compare by
    value (NaN equals NaN); anything else by its text, with max_abs and max_rel None for a
    column whose changed cells are not all numbers. Where some of those cells moved only in
    the numbers written in them, the column also has "by_row": {first cell of the row:
    {"changed": cells, "max_abs": largest text_delta, None if a cell moved in more}}.
    """
    (base_cols, base_rows), (head_cols, head_rows) = base, head
    if base_cols != head_cols:
        return {"shape": f"columns {base_cols} -> {head_cols}", "columns": {}}
    if len(base_rows) != len(head_rows):
        return {"shape": f"{len(base_rows)} -> {len(head_rows)} rows", "columns": {}}
    columns = {}
    for j, name in enumerate(base_cols):
        changed, max_abs, max_rel, first, by_row = 0, 0.0, 0.0, None, {}
        for b_row, h_row in zip(base_rows, head_rows):
            b, h = b_row[j], h_row[j]
            x, y = _number(b), _number(h)
            if x is not None and y is not None:
                if x == y or (math.isnan(x) and math.isnan(y)):
                    continue
                delta = abs(y - x)
                rel = delta / abs(x) if x != 0.0 else math.inf
                if max_abs is not None:
                    max_abs, max_rel = max(max_abs, delta), max(max_rel, rel)
            elif str(b) == str(h):
                continue
            else:
                max_abs = max_rel = None
                _fold_row(by_row, str(b_row[0]), text_delta(b, h))
            changed += 1
            first = first or [b, h]
        if changed:
            columns[name] = {"changed": changed, "max_abs": max_abs, "max_rel": max_rel,
                             "first": first}
            if any(row["max_abs"] is not None for row in by_row.values()):
                columns[name]["by_row"] = by_row
    return {"shape": None, "columns": columns}


def _fold_row(by_row: dict, key: str, delta, cells: int = 1) -> None:
    row = by_row.setdefault(key, {"changed": 0, "max_abs": 0.0})
    row["changed"] += cells
    row["max_abs"] = None if None in (row["max_abs"], delta) else max(row["max_abs"], delta)


def _compare(base_path: Path, head_path: Path):
    """(bytes identical, diff_datasets result or None) of two dataset files."""
    from perfbench.oracle import load_dataset

    if not (base_path.exists() and head_path.exists()):
        return base_path.exists() == head_path.exists(), None
    if base_path.read_bytes() == head_path.read_bytes():
        return True, None
    return False, diff_datasets(load_dataset(str(base_path)), load_dataset(str(head_path)))


def rerun_differences(items, first: Path, second: Path) -> list[str]:
    """argv of each item whose dataset ``<k>.out`` differs between the run directories
    first and second, in bytes or in being written at all."""
    differ = []
    for k, (_, item) in enumerate(items):
        a, b = first / f"{k}.out", second / f"{k}.out"
        if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
            differ.append(" ".join(item.argv))
    return differ


def _fold(total: dict, columns: dict) -> None:
    for name, col in columns.items():
        agg = total.setdefault(name, {"changed": 0, "max_abs": 0.0, "max_rel": 0.0})
        agg["changed"] += col["changed"]
        for key in ("max_abs", "max_rel"):
            agg[key] = None if None in (agg[key], col[key]) else max(agg[key], col[key])
        for key, row in col.get("by_row", {}).items():
            _fold_row(agg.setdefault("by_row", {}), key, row["max_abs"], row["changed"])


def _line(name, item, base, head, identical, diff) -> str:
    def pair(key):
        return f"{base[key]}" if base[key] == head[key] else f"{base[key]} -> {head[key]}"

    text = (f"{name:9s} {' '.join(item.argv)} | rc {pair('rc')} | {pair('status')} | "
            f"oracle {pair('oracle')} | {'identical' if identical else 'bytes differ'}")
    if base["error"] or head["error"]:
        text += f" | {pair('error')}"
    if diff is not None and diff["shape"]:
        text += f" | {diff['shape']}"
    elif diff is not None:
        text += " | " + ", ".join(
            f"{col} max|d| {d['max_abs']:.3g} (rel {d['max_rel']:.3g}, {d['changed']} cells)"
            if d["max_abs"] is not None
            else f"{col} {d['changed']} cells, first {d['first'][0]!r} -> {d['first'][1]!r}"
            + "".join(f"; {key}: {row['changed']} cells, max|d| {row['max_abs']}"
                      for key, row in d.get("by_row", {}).items())
            for col, d in diff["columns"].items())
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workloads", nargs="+", default=["maxima", "bloch", "lindblad",
                                                           "circuits"])
    parser.add_argument("--seeds", nargs="+", default=["1-30"])
    parser.add_argument("--run-tree", nargs=3, metavar=("SRC", "OUT", "ITEMS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_tree:
        run_tree(*args.run_tree)
        return 0

    items = distinct_items(args.workloads, parse_seeds(args.seeds))
    with tempfile.TemporaryDirectory(prefix="lgsim-parity-") as tmp:
        tmp = Path(tmp)
        (tmp / "items.json").write_text(json.dumps([[item.argv, item.kind]
                                                    for _, item in items]))
        procs, trees = {}, {}
        for side, ref in (("base", args.base), ("head", args.head), ("rerun", None)):
            trees[side] = trees["head"] if ref is None else export_src(ref, tmp / side / "tree")
            (tmp / side / "out").mkdir(parents=True)
            procs[side] = subprocess.Popen([sys.executable, __file__, args.base, args.head,
                                            "--run-tree", str(trees[side]),
                                            str(tmp / side / "out"), str(tmp / "items.json")])
        for side, proc in procs.items():
            if proc.wait() != 0:
                print(f"error: the {side} tree's run failed ({proc.returncode})", file=sys.stderr)
                return 2
        records = {side: json.loads((tmp / side / "out" / "records.json").read_text())
                   for side in procs}

        summary = {"base": args.base, "head": args.head, "seeds": args.seeds,
                   "items": len(items), "changed": [], "workloads": {},
                   "head_reruns_differ": rerun_differences(items, tmp / "head" / "out",
                                                           tmp / "rerun" / "out")}
        for k, (name, item) in enumerate(items):
            base, head = records["base"][k], records["head"][k]
            identical, diff = _compare(tmp / "base" / "out" / f"{k}.out",
                                       tmp / "head" / "out" / f"{k}.out")
            print(_line(name, item, base, head, identical, diff))
            w = summary["workloads"].setdefault(name, {
                "items": 0, "identical": 0, "base_status": {}, "head_status": {},
                "unreadable": 0, "columns": {}})
            w["items"] += 1
            w["identical"] += identical
            for side, rec in (("base", base), ("head", head)):
                counts = w[f"{side}_status"]
                counts[rec["status"]] = counts.get(rec["status"], 0) + 1
            if diff is not None:
                w["unreadable"] += diff["shape"] is not None
                _fold(w["columns"], diff["columns"])
            if any(base[key] != head[key] for key in ("rc", "status", "oracle")):
                summary["changed"].append(" ".join(item.argv))
    print(json.dumps(summary))
    return 1 if summary["changed"] or summary["head_reruns_differ"] else 0


if __name__ == "__main__":
    sys.exit(main())

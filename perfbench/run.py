"""lgsim benchmark: seeded CLI workloads, drift-corrected throughput, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload maxima --seed 1 --seconds 5 --trace 0

One client drives ``lgsim.cli.main(argv)`` in this process, in a closed loop
(each item starts when the previous one returns), single-threaded. A run
repeats its workload's pass (see ``workloads.py``) until at least
``--seconds`` of item time, in reference seconds, has been measured, finishing
the pass in progress; so the number of passes does not follow the drift.
Every item's dataset is checked against ``oracle.py`` outside the timed
section.

CPU speed on a shared machine drifts (by up to 2x on a 2-core x86_64 VM), so
every time is reported in reference seconds: measured seconds scaled by
NOMINAL_CALIB_MS over the time of a small-numpy calibration loop sampled
while that item ran (see ``clock.py``). Raw seconds are kept beside them in
the results file.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one pass, each
item untraced and then traced (see ``tracing.py``), and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every run also appends
a full record, with per-item times and machine facts, to
``.perfbench_out/results.jsonl``; ``compare.py`` reads those files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

from perfbench import oracle, tracing, workloads  # noqa: E402
from perfbench.clock import NOMINAL_CALIB_MS, Clock  # noqa: E402

ITEM_LIMIT_S = 30.0         # an item still running after this is stopped and failed
SETUP_REPEATS = 5           # fresh interpreters per run for setup_s
WARM_REPEATS = 2            # warm in-process repeats of the setup item, after one more
CHILD_LIMIT_S = 120.0

# A fresh interpreter: import lgsim.cli and run one item, timed by a Clock
# started as soon as numpy is loaded. argv: root, src, out path, item argv.
CHILD = r"""
import time
t0 = time.perf_counter()
import contextlib, io, json, resource, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from perfbench.clock import Clock
with Clock() as clock:
    import lgsim.cli as cli
    import_s = time.perf_counter() - t0 - clock.sampled_s
    import_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scipy_loaded = int(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(sys.argv[4:] + ["--out", sys.argv[3]])
print(json.dumps({"rc": rc, "import_s": import_s, "import_rss_mb": import_rss_mb,
                  "scipy_loaded": scipy_loaded, "calib_ms": clock.calib_ms,
                  "sampled_s": clock.sampled_s}))
"""


class ItemTimeout(BaseException):
    """Raised by SIGALRM when an item exceeds ITEM_LIMIT_S."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _digest(path: Path):
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_item(cli, item, path: Path, tracer=None) -> dict:
    """Run one item in-process; return its record (times in seconds)."""
    if path.exists():
        path.unlink()
    argv = list(item.argv) + ["--out", str(path)]
    status, error, rc = None, None, None
    sink = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = Clock(tracer.exclude if tracer is not None else None)
    ctx = tracer if tracer is not None else contextlib.nullcontext()
    with ctx, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), clock:
        try:
            signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
            try:
                rc = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except ItemTimeout:
            status = "timeout"
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught exception is exit 1 for a CLI user
            status, error = "exit1", f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.fold(NOMINAL_CALIB_MS / clock.calib_ms)
    if status is None:
        status = {0: "ok", 1: "exit1"}.get(rc, "exit2")
    return {"argv": list(item.argv), "kind": item.kind, "rc": rc, "status": status,
            "error": error, "raw_s": clock.raw_s, "ref_s": clock.ref_s, "calib_ms": clock.calib_ms,
            "digest": _digest(path),
            "fail_lines": [line for line in sink.getvalue().splitlines()
                           if line.startswith(("FAIL", "error"))][:4]}


def check_item(item, rec: dict, path: Path, verdicts: dict) -> None:
    """Apply the oracle once per distinct item; later runs must match bytes."""
    if rec["digest"] is None:
        rec["oracle"] = None
        return
    key = tuple(item.argv)
    if key not in verdicts:
        try:
            oracle.check(item, str(path))
            verdicts[key] = (rec["digest"], "ok")
        except (oracle.OracleError, ValueError, KeyError, IndexError) as exc:
            verdicts[key] = (rec["digest"], f"{type(exc).__name__}: {exc}")
    digest, verdict = verdicts[key]
    rec["oracle"] = verdict if digest == rec["digest"] else "dataset bytes differ between runs"
    if rec["oracle"] != "ok" and rec["status"] == "ok":
        rec["status"] = "oracle"


def measure_setup(item, data: Path, env: dict) -> list[dict]:
    """Cold runs of ``item`` in fresh interpreters (see CHILD), in reference seconds."""
    out = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, "-c", CHILD, str(ROOT), str(SRC), str(data / f"setup-{k}.out"),
               *item.argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"setup child exceeded {CHILD_LIMIT_S} s")
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed ({proc.returncode}): {stderr.strip()}")
        facts = json.loads(stdout.strip().splitlines()[-1])
        factor = NOMINAL_CALIB_MS / facts["calib_ms"]
        raw = wall - facts["sampled_s"]
        out.append({**facts, "raw_s": raw, "ref_s": raw * factor,
                    "import_ref_s": facts["import_s"] * factor})
    return out


def _blas_threads():
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def machine_facts() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": _blas_threads(),
            "machine": platform.machine(), "commit": _commit(),
            "nominal_calib_ms": NOMINAL_CALIB_MS, "item_limit_s": ITEM_LIMIT_S}


# --- metrics -----------------------------------------------------------------

FAIL_KINDS = ("exit1", "exit2", "timeout", "oracle")


def _fail_counts(records) -> dict:
    return {k: sum(r["status"] == k for r in records) for k in FAIL_KINDS}


def end_to_end(records, setup_s: float) -> dict:
    ref = sum(r["ref_s"] for r in records)
    completed = sum(r["status"] == "ok" for r in records)
    return {
        "items_per_s": (completed / ref, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": ((len(records) - completed) / len(records), "ratio"),
    }


def per_layer(tracer, untraced, traced, setup, wall_s) -> tuple[dict, list]:
    """Per-layer metrics from one traced pass; also the names found absent."""
    absent = []
    traced_s = sum(r["ref_s"] for r in traced)
    span_total = traced_s - tracer.overhead   # the wrappers' own time is nobody's

    def fn(name):
        i = tracer.index(name)
        if i is None:
            absent.append(name)
        return i

    def calls(name):
        i = fn(name)
        return 0 if i is None else tracer.calls[i]

    def units(name):
        i = fn(name)
        return 0 if i is None else tracer.units[i]

    def per_unit(name, scale):
        return scale * tracer.total[fn(name)] / units(name) if units(name) else 0.0

    def self_share(layer):
        return sum(t for n, t in zip(tracer.names, tracer.self_time)
                   if tracing.layer_of(n) == layer) / span_total

    lifetimes = calls("noise.lifetime")
    fails = _fail_counts(untraced)
    m = {
        "lgi.ttb_map.us_per_config": (per_unit("lgi.ttb_map", 1e6), "us"),
        "lgi.k3max_surface.us_per_config": (per_unit("lgi.k3max_surface", 1e6), "us"),
        "lgi.k3_max.calls": (calls("lgi.k3_max"), "count"),
        "lgi.self_share": (self_share("lgi"), "share"),
        "lgi.k3_curve.us_per_point": (per_unit("lgi.k3_curve", 1e6), "us"),
        "lgi.correlator.calls": (calls("lgi.correlator"), "count"),
        "superpose.soe.calls": (calls("superpose.soe"), "count"),
        "superpose.self_share": (self_share("superpose"), "share"),
        "superpose.superposed_unitary.calls": (calls("superpose.superposed_unitary"), "count"),
        "linalg.rot.calls": (calls("linalg.rot"), "count"),
        "linalg.kron.calls": (calls("linalg.kron"), "count"),
        "linalg.self_share": (self_share("linalg"), "share"),
        "ancilla.verify_pulse_sequences.us_per_point":
            (per_unit("ancilla.verify_pulse_sequences", 1e6), "us"),
        "ancilla.self_share": (self_share("ancilla"), "share"),
        "ancilla.project_ancilla.calls": (calls("ancilla.project_ancilla"), "count"),
        "noise.lifetime.calls": (lifetimes, "count"),
        "noise.lifetime.ms_per_call":
            (1e3 * tracer.total[fn("noise.lifetime")] / lifetimes if lifetimes else 0.0, "ms"),
        "noise.integrate_bloch.per_lifetime":
            (calls("noise.integrate_bloch") / lifetimes if lifetimes else 0.0, "ratio"),
        "noise.solve_ivp.calls": (calls("noise.solve_ivp"), "count"),
        "noise.solve_ivp.self_share": (self_share("noise.solve_ivp"), "share"),
        "noise.self_share": (self_share("noise"), "share"),
        "cli.emit_series.us_per_row": (per_unit("cli.emit_series", 1e6), "us"),
        "cli.emit_series.rows": (units("cli.emit_series"), "count"),
        "cli.self_share": (self_share("cli"), "share"),
        "setup.import_s": (statistics.median(s["import_ref_s"] for s in setup), "s"),
        "setup.import_rss_mb": (statistics.median(s["import_rss_mb"] for s in setup), "MB"),
        "setup.scipy_loaded": (max(s["scipy_loaded"] for s in setup), "bool"),
        "fail.exit1": (fails["exit1"], "count"),
        "fail.exit2": (fails["exit2"], "count"),
        "fail.timeout": (fails["timeout"], "count"),
        "fail.oracle": (fails["oracle"], "count"),
        "fail_ratio": (sum(fails.values()) / len(untraced), "ratio"),
        "bench.wall_s": (wall_s, "s"),
        "bench.calib_ms": (statistics.median(r["calib_ms"] for r in untraced + traced), "ms"),
        "bench.trace_overhead": (traced_s / sum(r["ref_s"] for r in untraced), "ratio"),
    }
    return m, sorted(set(absent))


def _print_table(title: str, metrics: dict, absent=()) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        shown = "absent" if any(name.startswith(a + ".") for a in absent) else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")


# --- main --------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wall0 = time.perf_counter()
    if not (SRC / "lgsim" / "cli.py").is_file():
        print(f"error: no lgsim source tree at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("LGSIM_THREADS", None)
    sys.path.insert(0, str(SRC))
    import lgsim.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "lgsim").resolve():
        print(f"error: imported lgsim from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    data = OUT / "data" / f"{args.workload}-{os.getpid()}"
    data.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "LGSIM_THREADS"}

    items = workloads.build(args.workload, args.seed)
    warm = [run_item(cli, items[0], data / "warm.out") for _ in range(WARM_REPEATS + 1)][1:]
    setup = measure_setup(items[0], data, env)
    setup_s = statistics.median(s["ref_s"] for s in setup) - statistics.median(
        r["ref_s"] for r in warm)

    verdicts: dict = {}
    untraced, traced = [], []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        for idx, item in enumerate(items):
            path = data / f"item-{idx}.out"
            rec = run_item(cli, item, path)
            check_item(item, rec, path, verdicts)
            untraced.append(rec)
            tracer.item = idx
            rec_t = run_item(cli, item, path, tracer)
            rec_t["matches_untraced"] = rec_t["digest"] == rec["digest"]
            traced.append(rec_t)
    else:
        measured = 0.0
        while measured < args.seconds:
            for idx, item in enumerate(items):
                path = data / f"item-{idx}.out"
                rec = run_item(cli, item, path)
                check_item(item, rec, path, verdicts)
                untraced.append(rec)
                measured += rec["ref_s"]

    wall_s = time.perf_counter() - wall0
    failed = sum(r["status"] != "ok" for r in untraced)
    correct = (all(r["status"] != "oracle" for r in untraced)
               and all(r.get("matches_untraced", True) for r in traced))
    e2e = end_to_end(untraced, setup_s)
    if args.trace:
        metrics, absent = per_layer(tracer, untraced, traced, setup, wall_s)
    else:
        metrics, absent = e2e, []

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": machine_facts(), "correct": correct,
              "attempted": len(untraced), "failed": failed, "absent": absent,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "setup": setup, "warm": warm, "items": untraced, "traced_items": traced}
    if tracer is not None:
        record["spans"] = len(tracer.span_name)
        record["wrapper_overhead_s"] = tracer.overhead
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if tracer is not None:
        tracer.write_spans(str(OUT / f"spans-{args.workload}-{args.seed}.tsv"))

    _print_table(f"workload {args.workload}, seed {args.seed}: end to end "
                 f"({len(untraced)} items, {failed} failed)", e2e)
    for r in untraced:
        if r["status"] != "ok":
            cause = (r["error"] or next(iter(r["fail_lines"]), None) or r["oracle"]
                     or "stopped at the per-item limit")
            print(f"  fail {r['status']}: lgsim {' '.join(r['argv'])}\n      {cause}")
    if args.trace:
        _print_table("per layer (traced pass)", metrics, absent)
    for f in data.iterdir():
        f.unlink()
    data.rmdir()
    print(json.dumps({"correct": correct, "attempted": len(untraced), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items() if k in _reported(args.trace)}}))
    return 0


def _reported(trace: int) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())

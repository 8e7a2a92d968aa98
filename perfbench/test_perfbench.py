"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lgsim.cli as cli  # noqa: E402
import lgsim.lgi as lgi  # noqa: E402
from perfbench import oracle, run, tracing, workloads  # noqa: E402
from perfbench.workloads import Item  # noqa: E402

SMALL = [
    Item(("ttb-map", "--grid", "3"), "draw"),
    Item(("k3-surface", "--grid", "4"), "draw"),
    Item(("k3-curves", "--grid", "60", "--phi", "150", "--alpha", "0.3"), "draw"),
    Item(("soe-profiles", "--grid", "400", "--phi", "60", "--format", "json"), "draw"),
    Item(("verify-circuits", "--grid", "3", "--format", "csv"), "draw"),
    Item(("selftest", "--seed", "3"), "draw"),
    Item(("lifetime-bloch", "--phi", "115", "--gamma", "1.0", "--grid", "2"), "draw"),
    Item(("lifetime-lindblad", "--phi", "115", "--gamma", "1.0", "--grid", "2"), "draw"),
]


def _id(item):
    return " ".join(item.argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_items(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert first != workloads.build(workload, 8)
    assert first[0].kind == "setup"
    assert len(first) == 1 + len(workloads.DEFAULTS[workload]) + workloads.DRAWS[workload]


def test_lindblad_runs_the_bloch_draws():
    bloch = [i.argv[1:] for i in workloads.build("bloch", 3)]
    lindblad = [i.argv[1:] for i in workloads.build("lindblad", 3)]
    assert bloch == lindblad


@pytest.mark.parametrize("item", SMALL, ids=_id)
def test_traced_and_untraced_runs_write_identical_bytes(item, tmp_path):
    plain = run.run_item(cli, item, tmp_path / "plain.out")
    tracer = tracing.Tracer()
    traced = run.run_item(cli, item, tmp_path / "traced.out", tracer)
    assert plain["digest"] is not None
    assert traced["digest"] == plain["digest"]
    assert tracer.calls[tracer.index("cli.main")] == 1
    # The wrappers' own time is in no self time: self times add up to the run.
    assert sum(tracer.self_time) == pytest.approx(tracer.total[tracer.index("cli.main")], rel=1e-9)
    assert tracer.overhead > 0.0
    oracle.check(item, str(tmp_path / "plain.out"))


def test_tracer_restores_bindings_and_marks_absent_names():
    original = lgi.ttb_map
    tracer = tracing.Tracer()
    with tracer:
        assert cli.ttb_map is not original and cli.ttb_map.__wrapped__ is original
    assert cli.ttb_map is original and lgi.ttb_map is original
    assert tracer.index("noise.no_such_function") is None
    assert tracer.index("noise.solve_ivp") is not None


def _perturb(path: Path, column: str, row: int, change) -> None:
    lines = path.read_text().split("\n")
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    k = header.index(column)
    cells[k] = repr(change(float(cells[k])))
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("item, column, row, change", [
    (SMALL[0], "k3max", 5, lambda v: v - 1e-5),
    (SMALL[0], "argmax_omega_t", 5, lambda v: v + 1e-2),
    (SMALL[1], "k3max", 13, lambda v: v + 1e-5),
    (SMALL[2], "k3_phi150", 17, lambda v: v + 1e-7),
    (SMALL[6], "tau_alpha", 1, lambda v: v * 1.01),
    (SMALL[7], "tau_alpha", 2, lambda v: v * 0.99),
], ids=["ttb-k3max", "ttb-argmax", "surface", "curves", "bloch-tau", "lindblad-tau"])
def test_oracle_rejects_a_perturbed_dataset(item, column, row, change, tmp_path):
    path = tmp_path / "data.csv"
    rec = run.run_item(cli, item, path)
    assert rec["digest"] is not None
    oracle.check(item, str(path))
    _perturb(path, column, row, change)
    with pytest.raises(oracle.OracleError):
        oracle.check(item, str(path))


def _next_crossing(k3, tau: float) -> float:
    """The downward crossing of K3 = 1 after the one at ``tau``, on the scan grid."""
    t = tau + oracle.SCAN_STEP * np.arange(1, 2000)
    v = k3(t)
    k = int(np.argmax(v >= 1.0))
    k += int(np.argmax(v[k:] < 1.0))
    lo, hi = t[k - 1], t[k]
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if k3(mid) >= 1.0 else (lo, mid)
    return float(0.5 * (lo + hi))


@pytest.mark.parametrize("model", ["bloch", "lindblad"])
def test_oracle_rejects_a_later_crossing(model, tmp_path):
    item = Item((f"lifetime-{model}", "--phi", "115", "--gamma", "0.05", "--grid", "2"), "draw")
    path = tmp_path / "data.csv"
    run.run_item(cli, item, path)
    oracle.check(item, str(path))
    tau_0 = float(path.read_text().split("\n")[2].split(",")[2])
    tau = float(path.read_text().split("\n")[4].split(",")[2])
    if model == "lindblad":
        k3 = oracle.LindbladK3(np.pi / 4, np.deg2rad(115.0), 0.05)
    else:
        k3 = oracle.BlochK3(np.pi / 4, np.deg2rad(115.0), 0.05, 60.0)
    later = _next_crossing(k3, tau)
    assert later > tau + 1.0
    _perturb(path, "tau_alpha", 2, lambda v: later)
    _perturb(path, "gain", 2, lambda v: later / tau_0)
    # The later tau still brackets K3 = 1, so only the scan check can reject it.
    with pytest.raises(oracle.OracleError, match="not the first crossing"):
        oracle.check(item, str(path))


def test_oracle_rejects_an_item_that_sets_omega(tmp_path):
    item = Item(("ttb-map", "--grid", "2", "--omega", "2"), "draw")
    path = tmp_path / "data.csv"
    run.run_item(cli, item, path)
    with pytest.raises(oracle.OracleError, match="omega"):
        oracle.check(item, str(path))

"""Command-line front end: deterministic emission, exit codes, embedded checks."""

import csv
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lgsim.ancilla as ancilla
import lgsim.cli as cli
import lgsim.lgi as lgi
import lgsim.noise as noise
import lgsim.superpose as superpose
from lgsim.ancilla import (KET_PLUS, PROJ0, PROJ1, ancilla_state, build_pulse_library,
                           interferometer_signal, normalization_signal, postselect_map,
                           project_ancilla)
from lgsim.cli import (DEFAULT_GAMMA, EXPERIMENTS, MAX_ROWS, RunConfig, build_parser, emit_series,
                       main, run)
from lgsim.lgi import correlator, k3_at
from lgsim.linalg import SIGMA_Z, dagger, dist_upto_phase, rot
from lgsim.superpose import (SuperpositionConfig, f_of_t, norm_factor_sq, planar,
                             superposed_unitary, unnormalized_superposed)
from test_ancilla import _per_point_matrix, _per_point_targets


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(experiment="unknown")
    with pytest.raises(ValueError):
        RunConfig(experiment="selftest", format="yaml")
    with pytest.raises(ValueError):
        RunConfig(experiment="ttb-map", grid=1)
    with pytest.raises(ValueError):
        RunConfig(experiment="ttb-map", omega=0.0)
    with pytest.raises(ValueError):
        RunConfig(experiment="ttb-map", omega=float("inf"))
    with pytest.raises(ValueError):
        RunConfig(experiment="ttb-map", omega=float("nan"))


def test_parser_defaults():
    args = build_parser().parse_args(["selftest"])
    assert args.experiment == "selftest"
    assert args.alpha is None and args.phi is None and args.gamma is None
    assert args.omega == 1.0
    assert args.seed == 12345
    with pytest.raises(SystemExit):
        build_parser().parse_args(["not-an-experiment"])


def test_default_gamma_value():
    assert np.isclose(DEFAULT_GAMMA, 1.0 / (4.0 * np.pi))


def test_emit_series_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    data = [[0.1, 1.0 / 3.0], [1, -2], [None, 2.5e-17], ["ok", "x,y"]]
    emit_series("demo", ["a", "b", "c", "d"], data, "csv", str(path),
                {"gamma": 0.25, "note": "n"})
    text = path.read_bytes().decode()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "# lgsim demo gamma=0.25 note=n"
    assert lines[1] == "a,b,c,d"
    parsed = list(csv.reader(lines[1:]))
    # repr round-trips every float exactly
    assert float(parsed[1][0]) == 0.1
    assert float(parsed[2][0]) == 1.0 / 3.0
    assert float(parsed[2][2]) == 2.5e-17
    assert parsed[1][2] == ""       # None becomes an empty cell
    assert parsed[2][3] == "x,y"    # commas survive quoting
    assert parsed[1][1] == "1"


def test_emit_series_json_round_trip(tmp_path):
    path = tmp_path / "t.json"
    emit_series("demo", ["a", "b"], [[np.float64(0.3), 2], [None, True]],
                "json", str(path), {"k": 2})
    text = path.read_text()
    doc = json.loads(text)
    assert doc["meta"] == {"k": 2, "name": "demo"}
    assert doc["columns"] == ["a", "b"]
    assert doc["rows"] == [[0.3, None], [2, True]]
    assert text.endswith("\n")
    # keys are emitted sorted, so the document is byte-stable
    assert text.index('"columns"') < text.index('"meta"') < text.index('"rows"')


_CELLS = st.one_of(
    st.text(), st.sampled_from(['say "hi"', "a,b", "two\nlines", "\u00e9t\u00e9 \u2192 \u221e"]),
    st.booleans(), st.none(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300]))


@st.composite
def _tables(draw):
    """A header and its data: one column per name, each a list of cells or a float array."""
    width = draw(st.integers(0, 4))
    length = draw(st.integers(0, 5))
    column = st.one_of(
        st.lists(_CELLS, min_size=length, max_size=length),
        st.lists(st.floats(), min_size=length, max_size=length).map(np.array))
    data = draw(st.lists(column, min_size=width, max_size=width))
    return draw(st.lists(st.text(), min_size=width, max_size=width)), data


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(table=_tables(), meta=st.dictionaries(st.text(), st.one_of(st.text(), st.floats())))
@example(table=(["only"], [[]]), meta={})
@example(table=(["only"], [[-0.0, "q\"u,o\nte \u00fc", None]]), meta={"k": 1e-300})
@example(table=(["a", "b"], [[float("nan"), float("-inf")], [float("inf"), True]]), meta={})
@example(table=(["f", "g"], [np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, np.nan]),
                             np.array([1e16, -1e-5, np.inf, 0.1, 1e16, -np.inf, 0.1])]), meta={})
def test_emit_series_json_matches_json_dumps(tmp_path_factory, table, meta):
    columns, data = table
    path = tmp_path_factory.mktemp("emit") / "t.json"
    emit_series("demo", columns, data, "json", str(path), meta)
    rows = [list(row) for row in zip(*data)]
    doc = {"meta": {"name": "demo", **meta}, "columns": columns, "rows": rows}
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_emit_series_empty_rows(tmp_path):
    path = tmp_path / "e.csv"
    emit_series("demo", ["a", "b"], [], "csv", str(path), {})
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "# lgsim demo"
    assert lines[1] == "a,b"


def test_emit_series_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_series("demo", ["a"], [], "xml", str(tmp_path / "x"), {})


def _reference_emit(name, columns, rows, fmt, path, meta):
    """The row-wise writer that emit_series replaced: the oracle for its bytes.

    Each row is a sequence of cells, each cell goes through cli._cell_csv or
    cli._cell_json, and the whole document is built in memory before it is
    written.
    """
    if fmt == "csv":
        buf = io.StringIO()
        provenance = " ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in sorted(meta.items()))
        buf.write(f"# lgsim {name} {provenance}".rstrip() + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow([cli._cell_csv(v) for v in row])
        data = buf.getvalue()
    else:
        # rows ("rows" sorts last) by one C-encoder call; strings escape
        # newlines and cells are scalars, so "],\n      [" occurs only between rows
        doc = {"meta": {"name": name, **meta}, "columns": list(columns), "rows": []}
        data = json.dumps(doc, indent=2, sort_keys=True)
        if rows:
            encoder = json.JSONEncoder(separators=(",\n      ", ": "))
            flat = encoder.encode([list(map(cli._cell_json, row)) for row in rows])
            cells = flat[2:-2].split("],\n      [")
            body = ",\n    ".join(f"[\n      {c}\n    ]" if c else "[]" for c in cells)
            data = data[:-len("[]\n}")] + "[\n    " + body + "\n  ]\n}"
        data += "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def _assert_writers_agree(tmp_path, name, columns, data, meta):
    rows = list(zip(*data))
    for fmt in ("csv", "json"):
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        emit_series(name, columns, data, fmt, str(new), meta)
        _reference_emit(name, columns, rows, fmt, str(old), meta)
        assert new.read_bytes() == old.read_bytes(), (name, fmt)


_SMALL_GRIDS = {"ttb-map": 6, "k3-surface": 5, "k3-curves": 40, "lifetime-bloch": 2,
                "lifetime-lindblad": 2, "soe-profiles": 40, "verify-circuits": 4, "selftest": None}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_columnar_writer_matches_the_row_writer(tmp_path, experiment):
    table, meta, _ = cli._RUNNERS[experiment](
        RunConfig(experiment=experiment, grid=_SMALL_GRIDS[experiment]))
    _assert_writers_agree(tmp_path, experiment, list(table), list(table.values()), meta)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(table=_tables(), meta=st.dictionaries(st.text(), st.one_of(st.text(), st.floats())))
@example(table=(["a", "b"], [["a\rb", "a\r\nb"], ["", "\r"]]), meta={})
@example(table=(["only"], [["", None, "x"]]), meta={})
@example(table=([""], [["a", ""]]), meta={})
@example(table=([], []), meta={"k": 1.0})
def test_emit_series_csv_matches_the_row_writer(tmp_path_factory, table, meta):
    # csv.writer quotes "\n" but not "\r", and writes a one-column row's empty cell as ""
    columns, data = table
    out = tmp_path_factory.mktemp("emit")
    emit_series("demo", columns, data, "csv", str(out / "new.csv"), meta)
    _reference_emit("demo", columns, list(zip(*data)), "csv", str(out / "old.csv"), meta)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_columnar_writer_matches_the_row_writer_on_edge_cells(tmp_path):
    # every cell type a runner may hand over, each kept to its _cell_csv and
    # _cell_json meaning: a bool is 1 or 0, None is empty, np.bool_ is not a bool
    cells = [None, True, False, np.bool_(True), np.bool_(False), 0, -7, np.int64(42),
             np.float64(0.1), -0.0, 0.0, 1e-300, 5e-324, float("nan"), float("inf"),
             "a,b", 'say "hi"', "two\nlines", "", "\u00e9t\u00e9"]
    floats = np.array([-0.0, 0.0, 1e-300, 0.1, 0.1, np.nan, np.inf, -np.inf, 5e-324, -0.0])
    tables = [[cells], [cells[::-1], cells], [floats], [floats, list(floats), floats[::-1]],
              [floats.astype(np.float32)], [[""]], [[None]], [[], []], []]
    for data in tables:
        _assert_writers_agree(tmp_path, "edge", [f"c{i}" for i in range(len(data))], data,
                              {"k": -0.0, "note": "a b"})


def _tuple_rows(phi_deg, alphas, lo, hi, peak):
    """The lifetime rows as the runner built them from one GainPoint each (omega = 1)."""
    taus = [float(t) for t in 0.5 * (lo + hi)]
    status = ["unresolved" if p < noise.PEAK_RESOLUTION else "no-crossing" if math.isnan(t)
              else "ok" for t, p in zip(taus, peak)]
    tau_0 = taus[alphas.index(0.0)] if status[alphas.index(0.0)] == "ok" else None
    return [(phi_deg, a, None, None, s) if s != "ok"
            else (phi_deg, a, t, None, "no-reference") if tau_0 is None
            else (phi_deg, a, t, t / tau_0, "ok") for a, t, s in zip(alphas, taus, status)]


@pytest.mark.parametrize("model", ("bloch", "lindblad"))
@pytest.mark.parametrize("row, crossing, peak, flags", (
    (2, False, None, {"no-crossing": 1, "ok": 4}),
    (2, True, 0.5 * noise.PEAK_RESOLUTION, {"unresolved": 1, "ok": 4}),
    (0, False, None, {"no-crossing": 1, "no-reference": 4}),
))
def test_flagged_lifetime_rows_reach_the_writer_as_the_tuple_rows_did(
        tmp_path, monkeypatch, model, row, crossing, peak, flags):
    # one row of each phi's batch loses its crossing or its peak: its tau and gain are NaN
    # in gain_curve's arrays, and the runner writes them as the None of the tuple rows,
    # an empty CSV cell and a JSON null, in both formats byte for byte
    real, seen = noise._brackets, []

    def patched(alphas, phi, kappa, model):
        lo, hi, peaks = real(alphas, phi, kappa, model)
        if not crossing:
            lo[row] = hi[row] = np.nan
        if peak is not None:
            peaks[row] = peak
        seen.append((list(alphas), lo, hi, peaks))
        return lo, hi, peaks

    monkeypatch.setattr(noise, "_brackets", patched)
    experiment = f"lifetime-{model}"
    meta = {"model": model, "gamma": DEFAULT_GAMMA, "omega": 1.0, "alpha_points": 5,
            "phi_deg": "90,115,140"}
    columns = ["phi_deg", "alpha", "tau_alpha", "gain", "status"]
    for fmt in ("csv", "json"):
        seen.clear()
        new, old = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        assert main([experiment, "--grid", "4", "--format", fmt, "--out", str(new)]) == 1
        rows = [r for pd, batch in zip((90.0, 115.0, 140.0), seen) for r in _tuple_rows(pd, *batch)]
        for status, count in flags.items():
            assert [r[4] for r in rows].count(status) == 3 * count, (fmt, status)
        _reference_emit(experiment, columns, rows, fmt, str(old), meta)
        assert new.read_bytes() == old.read_bytes(), fmt
        if fmt == "csv":
            cells = [(r["tau_alpha"], r["gain"]) for r in _rows(new)]
            expect = [("" if t is None else repr(t), "" if g is None else repr(g))
                      for *_, t, g, _ in rows]
        else:
            cells = [tuple(r[2:4]) for r in json.loads(new.read_text())["rows"]]
            expect = [(t, g) for *_, t, g, _ in rows]
            assert new.read_text().count("      null") == sum(v is None for r in rows
                                                             for v in r[2:4])
        assert cells == expect, fmt


def test_soe_profiles_runs_clean(tmp_path, capsys):
    out = tmp_path / "soe.csv"
    code = run(RunConfig(experiment="soe-profiles", out=str(out)))
    assert code == 0
    stdout = capsys.readouterr().out
    assert all(line.startswith(("PASS soe-profiles:", "wrote "))
               for line in stdout.strip().splitlines())
    assert f"wrote {out}" in stdout
    header = out.read_text().splitlines()[0]
    assert header.startswith("# lgsim soe-profiles")


def test_soe_profiles_derivative_check_near_antiparallel_axes(tmp_path, capsys):
    # the rate spike at omega*t = pi narrows to ~B/A; the stencil resolves it
    # on any output grid
    for phi, grid in ((170.0, None), (179.0, 100), (150.0, 4000)):
        out = tmp_path / "soe.csv"
        assert run(RunConfig(experiment="soe-profiles", phi=phi, grid=grid, out=str(out))) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_soe_profiles_derivative_check_catches_a_wrong_rate(tmp_path, monkeypatch, capsys):
    # mutation: a rate 0.1 % off the derivative of f must still fail the check
    real = cli.soe
    monkeypatch.setattr(cli, "soe", lambda cfg, t: real(cfg, t) * (1.0 + 1e-3))
    code = run(RunConfig(experiment="soe-profiles", phi=170.0, out=str(tmp_path / "s.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert stdout.count("FAIL soe-profiles: rate is the derivative of the accumulated angle") == 3


def test_map_grids_are_bounded_before_allocation(tmp_path, capsys):
    # the largest grid within MAX_ROWS dataset rows: (g + 1) g for the maps,
    # g + 1 for the curves, 3 g^2 for the circuits
    limits = {"ttb-map": 499, "k3-surface": 499, "k3-curves": MAX_ROWS - 1,
              "soe-profiles": MAX_ROWS - 1, "verify-circuits": 288}
    RunConfig(experiment="lifetime-bloch", grid=100000)  # lifetime grids cost time, not memory
    tracemalloc.start()
    try:
        for exp, limit in limits.items():
            RunConfig(experiment=exp, grid=limit)
            with pytest.raises(ValueError):
                RunConfig(experiment=exp, grid=limit + 1)
            out = tmp_path / f"{exp}.csv"
            assert main([exp, "--grid", "1000000", "--out", str(out)]) == 2
            assert not out.exists()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert capsys.readouterr().err.count("dataset rows, more than") == len(limits)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _statuses(path):
    return [row["status"] for row in _rows(path)]


def test_stiff_lifetime_bloch_exits_cleanly(tmp_path, capsys):
    # gamma = 1e6 once hung in an explicit solver. Deep in the Zeno regime the
    # alpha = 0 violation peaks near gamma^-2 = 1e-12, below resolution: no row
    # reports a gain, and the run exits 1 in bounded time without warnings
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["lifetime-bloch", "--gamma", "1e6", "--out", str(tmp_path / "b.csv")])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1
    assert "FAIL lifetime-bloch: every scan found a crossing" in out and "Traceback" not in err
    statuses = _statuses(tmp_path / "b.csv")
    assert "ok" not in statuses and statuses[::5] == ["unresolved"] * 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert elapsed < 10.0


def test_huge_gamma_lifetimes_run_without_warnings(tmp_path):
    # gamma = 1e300 once overflowed while squaring -gamma h / 2 in the Magnus steps;
    # the scan now runs to omega t = 50 there, every value finite
    for gamma in ("1e6", "1e300"):
        for exp in ("lifetime-bloch", "lifetime-lindblad"):
            out = tmp_path / f"{exp}.csv"
            start = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([exp, "--gamma", gamma, "--phi", "175", "--out", str(out)]) == 1
            assert time.perf_counter() - start < 10.0
            statuses = _statuses(out)
            assert "ok" not in statuses and statuses[0] == "unresolved", (exp, gamma)


@pytest.mark.parametrize("experiment", ("lifetime-bloch", "lifetime-lindblad"))
def test_kappa_past_the_float_range_reads_unresolved(tmp_path, experiment):
    # gamma / omega = 1e310 overflows to kappa = inf, where s_z is frozen and K3 = 1 in
    # both models: every row is unresolved, with no NaN on the way and no warning
    out = tmp_path / "k.csv"
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([experiment, "--gamma", "1e300", "--omega", "1e-10", "--grid", "2",
                     "--out", str(out)]) == 1
    assert time.perf_counter() - start < 10.0
    assert _statuses(out) == ["unresolved"] * 9


def test_lifetimes_at_tiny_omega_are_the_omega_one_lifetimes_rescaled(tmp_path):
    # kappa = 1e-202 / 1e-200 = 0.01: the kernels work in omega t, so nothing overflows
    # and omega tau is the tau of gamma = 0.01 at omega = 1
    tiny, unit = tmp_path / "tiny.csv", tmp_path / "unit.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["lifetime-bloch", "--omega", "1e-200", "--gamma", "1e-202", "--grid", "2",
                     "--out", str(tiny)]) == 0
    assert main(["lifetime-bloch", "--gamma", "0.01", "--grid", "2", "--out", str(unit)]) == 0
    for a, b in zip(_rows(tiny), _rows(unit), strict=True):
        assert a["status"] == b["status"] == "ok"
        tau = float(b["tau_alpha"])
        assert abs(1e-200 * float(a["tau_alpha"]) - tau) <= 1e-9 * tau


def test_zeno_regime_bloch_rows_cross_past_50_over_gamma(tmp_path):
    # the alpha > 0 rows cross near omega t = 3.04, past 50 / gamma = 2.30
    out = tmp_path / "b.csv"
    assert main(["lifetime-bloch", "--phi", "135.8688059322362", "--gamma",
                 "21.731734440696137", "--grid", "2", "--out", str(out)]) == 0
    assert _statuses(out) == ["ok"] * 3


def test_lifetime_edge_matrix_runs_cleanly(tmp_path, capsys):
    # kappa = gamma / omega from the unitary limit to deep Zeno, axes nearly
    # anti-parallel: every case gives a dataset, in bounded time
    start = time.perf_counter()
    for exp in ("lifetime-bloch", "lifetime-lindblad"):
        for kappa in (1e-10, 1e-4, 1.0, 2.0, 100.0, 1e4, 1e12):
            for phi in ("179.9", "179.999"):
                out = tmp_path / "edge.csv"
                code = main([exp, "--gamma", repr(kappa), "--phi", phi, "--grid", "2",
                             "--out", str(out)])
                assert code in (0, 1), (exp, kappa, phi)
                assert len(_statuses(out)) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert time.perf_counter() - start < 10.0


def test_import_loads_no_scipy(tmp_path):
    code = ("import sys, lgsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # every experiment runs where scipy cannot be imported at all
    grids = {"ttb-map": 6, "k3-surface": 6, "k3-curves": 40, "lifetime-bloch": 2,
             "lifetime-lindblad": 2, "soe-profiles": 40, "verify-circuits": 4}
    runs = [[exp, "--out", str(tmp_path / exp)] + (["--grid", str(grids[exp])] if exp in grids
                                                   else []) for exp in EXPERIMENTS]
    code = ("import sys; sys.modules['scipy'] = None; from lgsim.cli import main; "
            f"print([main(argv) for argv in {runs!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([0] * len(EXPERIMENTS))


def test_k3_curves_single_phi_columns(tmp_path):
    out = tmp_path / "curves.csv"
    code = run(RunConfig(experiment="k3-curves", phi=90.0, grid=40, out=str(out)))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "omega_t,c12_phi90,c13_phi90,k3_phi90"
    assert len(lines) == 2 + 41
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert np.isclose(float(first[3]), 1.0, atol=1e-9)


def test_ttb_map_small_grid(tmp_path, capsys):
    out = tmp_path / "ttb.csv"
    code = run(RunConfig(experiment="ttb-map", grid=12, out=str(out)))
    assert code == 0
    assert "3/3 checks passed" in capsys.readouterr().out
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 13 * 12
    k3max = np.array([float(r.split(",")[2]) for r in rows])
    assert k3max.max() <= 1.5 + 1e-9


def test_ttb_map_odd_grid(tmp_path, capsys):
    # linspace(0, pi, 8) misses eta = pi/2, so the peak is the grid's own
    # closed-form maximum, below 1.5
    out = tmp_path / "ttb.csv"
    code = run(RunConfig(experiment="ttb-map", grid=7, out=str(out)))
    stdout = capsys.readouterr().out
    assert code == 0
    assert "PASS ttb-map: peak equals the closed-form maximum on the eta grid" in stdout
    assert "3/3 checks passed" in stdout
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 8 * 7
    k3max = np.array([float(r.split(",")[2]) for r in rows])
    eta = np.linspace(0.0, np.pi, 8)
    assert abs(k3max.max() - (1.0 + 0.5 * np.sin(eta) ** 2).max()) < 1e-6
    assert k3max.max() < 1.5 - 1e-3


def test_lifetime_single_phi(tmp_path, capsys):
    out = tmp_path / "life.csv"
    code = run(RunConfig(experiment="lifetime-bloch", phi=115.0, grid=2, out=str(out)))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    rows = [r.split(",") for r in out.read_text().splitlines()[2:]]
    assert len(rows) == 3
    gains = [float(r[3]) for r in rows]
    assert gains[0] == 1.0
    assert gains[-1] > 1.1
    assert all(r[4] == "ok" for r in rows)


def test_verify_circuits_json_report(tmp_path):
    out = tmp_path / "verify.json"
    code = run(RunConfig(experiment="verify-circuits", grid=4, out=str(out)))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["columns"] == ["sequence", "phi", "omega_t", "distance"]
    max_dists = [v for k, v in doc["meta"].items() if k.startswith("max_dist_")]
    assert len(max_dists) == 3
    assert max(max_dists) < 1e-9


def test_verify_circuits_distances_are_never_negative(tmp_path):
    out = tmp_path / "verify.json"
    assert run(RunConfig(experiment="verify-circuits", out=str(out))) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 3 * 21 * 21
    assert min(row[3] for row in rows) >= 0.0


def test_verify_circuits_table_nests_and_matches_the_per_point_oracle():
    n = 5
    table, _, _ = cli._run_verify_circuits(RunConfig(experiment="verify-circuits", grid=n))
    phis = np.linspace(0.0, np.pi, n + 2)[1:-1]
    omega_ts = np.linspace(0.0, 2.0 * np.pi, n)
    names = [seq.name for seq, _ in build_pulse_library(1.0, 1.0)]
    nested = [(name, p, w) for p in phis for w in omega_ts for name in names]
    assert list(zip(table["sequence"], table["phi"], table["omega_t"])) == nested
    assert len(table["distance"]) == len(nested)
    for (name, p, w), d in zip(nested, table["distance"]):
        k = names.index(name)
        m = _per_point_matrix(build_pulse_library(p, w)[k][0])
        expected = max(1.0 - abs(np.trace(m.conj().T @ _per_point_targets(p, w)[k])) / 4, 0.0)
        assert abs(d - expected) < 1e-14


def test_selftest_passes(tmp_path, capsys):
    # at omega = 1e6 every random draw is in omega*t, so no check loses precision
    for omega in (1.0, 1e6):
        out = tmp_path / "self.json"
        code = run(RunConfig(experiment="selftest", omega=omega, out=str(out)))
        assert code == 0
        stdout = capsys.readouterr().out
        pass_lines = [l for l in stdout.splitlines() if l.startswith("PASS selftest:")]
        assert len(pass_lines) >= 10
        assert "FAIL" not in stdout
        doc = json.loads(out.read_text())
        assert all(row[1] for row in doc["rows"])  # every check column is true


def test_selftest_passed_cells_are_booleans(tmp_path):
    # some checks hand Check an np.bool_, which was written as True (CSV) and 1.0 (JSON)
    assert cli.Check("c", np.bool_(False)).passed is False
    for fmt in ("csv", "json"):
        assert run(RunConfig(experiment="selftest", format=fmt,
                             out=str(tmp_path / f"self.{fmt}"))) == 0
    rows = list(csv.reader((tmp_path / "self.csv").read_text().splitlines()[1:]))
    assert rows[0][1] == "passed" and {row[1] for row in rows[1:]} == {"1"}
    doc = json.loads((tmp_path / "self.json").read_text())
    assert doc["columns"][1] == "passed" and all(row[1] is True for row in doc["rows"])


def test_selftest_catches_a_lowered_k3_maximum(tmp_path, monkeypatch, capsys):
    # mutation: a kernel 1e-6 below the true maximum reads below the dense scan
    real = lgi._k3_maxima
    monkeypatch.setattr(lgi, "_k3_maxima", lambda coef: (real(coef)[0] - 1e-6, real(coef)[1]))
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "self.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL selftest: closed-form K3 maximum tops a dense scan" in stdout
    assert stdout.count("FAIL") == 1


def test_selftest_catches_a_broken_propagator(tmp_path, monkeypatch, capsys):
    # mutation: a Liouvillian at half the dephasing rate moves the propagated correlator
    real = noise.liouvillian
    monkeypatch.setattr(noise, "liouvillian",
                        lambda cfg, n: real(cfg, noise.NoiseConfig(0.5 * n.gamma)))
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "self.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL selftest: joint-state propagator matches the closed-form correlator" in stdout
    assert stdout.count("FAIL") == 1


def test_selftest_catches_a_wrong_postselected_channel(tmp_path, monkeypatch, capsys):
    # mutation: the ancilla prepared with its two amplitudes swapped, cos(alpha)|0> +
    # sin(alpha)|1>: still a conjugation, with a state-independent probability, but by the
    # other superposition
    real = ancilla.ancilla_state
    monkeypatch.setattr(ancilla, "ancilla_state", lambda alpha: real(np.pi / 2 - alpha))
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "self.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL selftest: post-selected channel equals the normalized conjugation" in stdout
    assert stdout.count("FAIL") == 1


def test_selftest_catches_a_misread_interferometer(tmp_path, monkeypatch, capsys):
    # mutation: the coherence of the whole M register read 1 % high
    real = ancilla.InterferometerSignal
    monkeypatch.setattr(ancilla, "InterferometerSignal",
                        lambda t_plus, t_minus, re_cm: real(t_plus, t_minus, 1.01 * re_cm))
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "self.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL selftest: interferometer coherence identity" in stdout
    assert stdout.count("FAIL") == 1


def test_selftest_catches_a_wrong_norm_factor(tmp_path, monkeypatch, capsys):
    # mutation: the closed form of N^2 with the wrong sign on its n.m term
    def wrong(cfg, delta):
        alpha, n, m, omega = superpose._fields(cfg, "alpha", "n_axis", "m_axis", "omega")
        x = 0.5 * omega * np.asarray(delta)
        return 1.0 + np.sin(2.0 * alpha) * (np.cos(x) ** 2 - np.vecdot(n, m) * np.sin(x) ** 2)

    monkeypatch.setattr(cli, "norm_factor_sq", wrong)
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "self.csv")))
    stdout = capsys.readouterr().out
    assert code == 1
    assert "FAIL selftest: norm factor matches the trace definition" in stdout
    assert stdout.count("FAIL") == 1


def _per_draw_selftest(seed, omega):
    """The selftest's draw-by-draw checks as first written: each draw, then its one-config
    calls, one at a time. Returns {check name: detail} for the checks it covers."""
    rng = np.random.default_rng(seed)
    details = {}

    def random_axis():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    def random_cfg():
        while True:
            n_axis, m_axis = random_axis(), random_axis()
            if float(n_axis @ m_axis) > -0.99:
                return SuperpositionConfig(alpha=rng.uniform(0.0, np.pi / 2),
                                           n_axis=n_axis, m_axis=m_axis, omega=omega)

    def random_planar():
        return planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.05, np.pi - 0.05), omega)

    def random_rho():
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ dagger(a)
        return rho / np.trace(rho).real

    worst = max(dist_upto_phase(rot(ax, a) @ rot(ax, b), rot(ax, a + b))
                for ax, a, b in ((random_axis(), rng.uniform(-6, 6), rng.uniform(-6, 6))
                                 for _ in range(10)))
    details["rotations about one axis compose"] = f"max = {worst:.3e}"

    worst = 0.0
    for _ in range(20):
        cfg = random_cfg()
        delta = rng.uniform(0.0, 6.0)
        ut = unnormalized_superposed(cfg, delta)
        direct = 0.5 * np.trace(ut @ dagger(ut)).real
        worst = max(worst, abs(float(norm_factor_sq(cfg, delta)) - direct))
    details["norm factor matches the trace definition"] = f"max = {worst:.3e}"

    worst, spread = 0.0, 0.0
    for _ in range(10):
        cfg = random_planar()
        delta = rng.uniform(0.1, 5.0)
        u = superposed_unitary(cfg, delta)
        probs = []
        for _ in range(3):
            rho = random_rho()
            out, prob = postselect_map(cfg, rho, 0.0, delta)
            worst = max(worst, float(np.abs(out - u @ rho @ dagger(u)).max()))
            probs.append(prob)
        spread = max(spread, max(probs) - min(probs))
    details["post-selected channel equals the normalized conjugation"] = f"max = {worst:.3e}"
    details["post-selection probability is state-independent"] = f"max spread = {spread:.3e}"

    worst_id, worst_corr = 0.0, 0.0
    for _ in range(10):
        cfg = random_planar()
        delta = rng.uniform(0.1, 5.0)
        sig = interferometer_signal(cfg, 0.0, delta)
        norm = normalization_signal(cfg, 0.0, delta)
        worst_id = max(worst_id, abs(sig.re_cm - 0.25 * (sig.t_plus + sig.t_minus)))
        worst_corr = max(worst_corr, abs(sig.t_plus / norm.n_plus - correlator(cfg, 0.0, delta)))
    details["interferometer coherence identity"] = f"max = {worst_id:.3e}"
    details["normalized coherence reproduces the correlator"] = f"max = {worst_corr:.3e}"

    quiet = noise.NoiseConfig(gamma=0.0)
    cfg = planar(np.pi / 8, np.deg2rad(135.0), omega)
    worst = 0.0
    for t in (0.4 / omega, 1.1 / omega):
        exact = k3_at(cfg, t)[2]
        bloch = noise.k3_bloch(cfg, quiet, t)
        joint = (2.0 * noise.noisy_correlator(cfg, quiet, 0.0, t)
                 - noise.noisy_correlator(cfg, quiet, 0.0, 2.0 * t))
        worst = max(worst, abs(bloch - exact), abs(joint - exact))
    details["all three noiseless routes agree on K3"] = f"max = {worst:.3e}"

    noisy = noise.NoiseConfig(gamma=DEFAULT_GAMMA)
    cfg = planar(np.pi / 4, np.deg2rad(115.0), omega)
    rho_a = np.outer(ancilla_state(cfg.alpha), ancilla_state(cfg.alpha))
    worst = 0.0
    for t in (0.37 / omega, 1.9 / omega, 3.3 / omega):
        blocks = [project_ancilla(noise.evolve_lindblad(np.kron(rho_a, p), cfg, noisy, t),
                                  KET_PLUS) for p in (PROJ0, PROJ1)]
        c = sum(q * 0.5 * float(np.trace(SIGMA_Z @ b).real / np.trace(b).real)
                for q, b in zip((1.0, -1.0), blocks))
        worst = max(worst, abs(c - noise.noisy_correlator(cfg, noisy, 0.0, t)))
    details["joint-state propagator matches the closed-form correlator"] = f"max = {worst:.3e}"

    worst = 0.0
    for _ in range(15):
        cfg = random_planar()
        t = rng.uniform(0.0, 12.0) / omega
        worst = max(worst, abs(float(np.cos(f_of_t(cfg, t))) - correlator(cfg, 0.0, t)))
    details["accumulated angle reproduces the correlator"] = f"max = {worst:.3e}"
    return details


@pytest.mark.parametrize("omega", (1.0, 1e6, 1e-100))
def test_stacked_selftest_reads_what_the_draw_by_draw_checks_read(tmp_path, omega):
    # the same draws in the same order, each identity evaluated once over all of them:
    # every detail the per-draw loops would write, to the last printed digit
    for seed in range(6):
        out = tmp_path / f"self{seed}.json"
        assert main(["selftest", "--seed", str(seed), "--omega", repr(omega),
                     "--out", str(out)]) == 0
        written = {row[0]: row[2] for row in json.loads(out.read_text())["rows"]}
        expect = _per_draw_selftest(seed, omega)
        assert {name: written[name] for name in expect} == expect, seed


@pytest.mark.parametrize("argv", (["lifetime-lindblad", "--omega", "1e-308"],
                                  ["lifetime-lindblad", "--gamma", "1e308"],
                                  ["lifetime-bloch", "--omega", "1e-308"],
                                  ["lifetime-bloch", "--gamma", "1e308"]))
def test_lindblad_lifetimes_at_kappa_near_the_float_range_run_cleanly(tmp_path, argv):
    # kappa = gamma / omega ~ 8e306 and 1e308: kappa u overflowed to inf in the Lindblad
    # correlator, and k = kappa h / 2 in the Bloch model's Magnus steps ("overflow
    # encountered in multiply"); e^(-kappa u) = 0 is the limit both stand for.
    # K3 stays 1 (s_z frozen): every row reads unresolved, and no scan finds a crossing
    out = tmp_path / "l.csv"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lgsim",
                           *argv, "--grid", "2", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert _statuses(out) == ["unresolved"] * 9
    assert proc.stdout.count(f"FAIL {argv[0]}: every scan found a crossing") == 3


def test_selftest_runs_cleanly_at_tiny_omega(tmp_path, capsys):
    # at omega = 1e-100 the dephasing exponent gamma t reaches ~1e98; at 1e-200 the
    # Bloch route's Magnus steps, once taken in t, overflowed on h^2 ~ 1e400
    for omega in ("1e-100", "1e-200"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["selftest", "--omega", omega, "--out", str(tmp_path / "s.json")]) == 0
        assert "FAIL" not in capsys.readouterr().out, omega


@pytest.mark.parametrize("omega", ("1e-308", "5e-324"))
def test_selftest_rejects_an_omega_its_times_overflow_at(tmp_path, omega):
    # its longest time, 12 / omega, is inf here: once a NaN step count deep in the Bloch
    # route (exit 2 with an unrelated message) or an uncaught OverflowError
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lgsim",
                           "selftest", "--omega", omega, "--out", str(tmp_path / "s.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "--omega" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("omega", ("1e-308", "5e-324"))
def test_soe_profiles_rejects_an_omega_its_times_overflow_at(tmp_path, omega):
    # its last time 2 pi / omega (and the stencil's 0.002 / omega past it) is inf here:
    # once 7 RuntimeWarnings and NaN checks, "max relative FD mismatch = nan"
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lgsim",
                           "soe-profiles", "--omega", omega, "--out", str(tmp_path / "s.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "--omega" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "s.csv").exists()


def test_soe_profiles_still_runs_at_tiny_omega(tmp_path):
    # just above the cut the run is clean, and its dataset is the one run() writes
    for omega in ("1e-300", "3.5e-308"):
        sub, direct = tmp_path / "sub.csv", tmp_path / "direct.csv"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lgsim",
                               "soe-profiles", "--omega", omega, "--out", str(sub)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout and not proc.stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(RunConfig(experiment="soe-profiles", omega=float(omega), out=str(direct))) == 0
        assert sub.read_bytes() == direct.read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    a, b = (tmp_path / n for n in ("a.csv", "b.csv"))
    assert run(RunConfig(experiment="ttb-map", grid=6, out=str(a))) == 0
    assert run(RunConfig(experiment="ttb-map", grid=6, out=str(b))) == 0
    assert a.read_bytes() == b.read_bytes()
    for experiment, extra in (("verify-circuits", {"grid": 7, "format": "csv"}),
                              ("verify-circuits", {"grid": 7, "format": "json"}),
                              ("selftest", {"seed": 3})):
        for path in (a, b):
            assert run(RunConfig(experiment=experiment, out=str(path), **extra)) == 0
        assert a.read_bytes() == b.read_bytes(), (experiment, extra)


def test_unwritable_output_is_reported(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = run(RunConfig(experiment="soe-profiles", out=str(out)))
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_run_reports_failed_checks(tmp_path, monkeypatch, capsys):
    def fake(config):
        return {"a": [1.0]}, {}, [cli.Check("always-fails", False, "synthetic")]

    monkeypatch.setitem(cli._RUNNERS, "selftest", fake)
    code = run(RunConfig(experiment="selftest", out=str(tmp_path / "x.json")))
    assert code == 1
    stdout = capsys.readouterr().out
    assert "FAIL selftest: always-fails (synthetic)" in stdout
    assert "0/1 checks passed" in stdout


def test_main_exit_codes(tmp_path):
    assert main(["soe-profiles", "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["ttb-map", "--grid", "1", "--out", str(tmp_path / "t.csv")]) == 2
    assert main(["k3-curves", "--omega", "0", "--out", str(tmp_path / "k.csv")]) == 2


def test_module_entry_point(tmp_path):
    for module in ("lgsim", "lgsim.cli"):
        out = tmp_path / f"{module}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", module, "soe-profiles", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
        assert "wrote" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr


def test_experiment_names_are_stable():
    assert EXPERIMENTS == ("ttb-map", "k3-surface", "k3-curves", "lifetime-bloch",
                           "lifetime-lindblad", "soe-profiles", "verify-circuits",
                           "selftest")

"""The dataset diffs of tools/parity.py, on hand-written datasets (no subprocess, no git)."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools.parity import (_fold, diff_datasets, parse_seeds, rerun_differences,  # noqa: E402
                          text_delta)

COLUMNS = ["phi_deg", "alpha", "tau_alpha", "gain", "status"]


def test_identical_datasets_have_no_changed_column():
    rows = [["115.0", "0.0", "1.5", "1.0", "ok"], ["115.0", "0.7", "", "", "no-crossing"]]
    assert diff_datasets((COLUMNS, rows), (COLUMNS, [list(r) for r in rows])) == {
        "shape": None, "columns": {}}


def test_numeric_and_text_changes_are_reported_per_column():
    base = [["115.0", "0.0", "1.5", "1.0", "ok"],
            ["115.0", "0.7", "2.0", "1.25", "ok"],
            ["115.0", "0.8", "nan", "", "no-crossing"]]
    head = [["115.0", "0.0", "1.5", "1.0", "ok"],
            ["115.0", "0.7", "2.000000001", "1.2500000005", "ok"],
            ["115.0", "0.8", "nan", "", "unresolved"]]
    diff = diff_datasets((COLUMNS, base), (COLUMNS, head))
    assert diff["shape"] is None
    assert set(diff["columns"]) == {"tau_alpha", "gain", "status"}  # NaN equals NaN
    tau = diff["columns"]["tau_alpha"]
    assert tau["changed"] == 1 and tau["first"] == ["2.0", "2.000000001"]
    assert math.isclose(tau["max_abs"], 1e-9, rel_tol=1e-6)
    assert math.isclose(tau["max_rel"], 5e-10, rel_tol=1e-6)
    assert math.isclose(diff["columns"]["gain"]["max_rel"], 4e-10, rel_tol=1e-6)
    assert diff["columns"]["status"] == {"changed": 1, "max_abs": None, "max_rel": None,
                                         "first": ["no-crossing", "unresolved"]}


def test_json_cells_compare_by_value_and_bools_as_text():
    columns = ["check", "passed", "detail", "value"]
    base = [["a", True, "max = 1.0e-16", 0.5], ["b", True, "", 2]]
    head = [["a", False, "max = 2.2e-16", 0.5], ["b", True, "", 2.0]]
    diff = diff_datasets((columns, base), (columns, head))
    assert set(diff["columns"]) == {"passed", "detail"}  # 2 == 2.0
    assert diff["columns"]["passed"]["max_abs"] is None


def test_mismatched_shapes_are_not_compared_cell_by_cell():
    rows = [["115.0", "0.0", "1.5", "1.0", "ok"]]
    assert "rows" in diff_datasets((COLUMNS, rows), (COLUMNS, rows + rows))["shape"]
    assert "columns" in diff_datasets((COLUMNS, rows), (COLUMNS[:4], [r[:4] for r in rows]))[
        "shape"]


def test_seed_ranges():
    assert parse_seeds(["1-3", "7", "2-4"]) == [1, 2, 3, 7, 4]


def test_rerun_differences_lists_items_whose_two_datasets_differ(tmp_path):
    items = [("maxima", SimpleNamespace(argv=("ttb-map", "--grid", str(k)))) for k in range(5)]
    first, second = tmp_path / "first", tmp_path / "second"
    for run in (first, second):
        run.mkdir()
        (run / "0.out").write_text("a,b\n1,2\n")  # same bytes
        (run / "3.out").write_text("x\n")
    (first / "1.out").write_text("a,b\n1,2\n")
    (second / "1.out").write_text("a,b\n1,2.0\n")  # same value, other bytes
    (first / "2.out").write_text("a\n")  # written by one run only; item 4 by neither
    assert rerun_differences(items, first, second) == ["ttb-map --grid 1", "ttb-map --grid 2"]
    assert rerun_differences(items, first, first) == []


def test_numbers_inside_text_cells_are_compared_per_row_name():
    columns = ["check", "passed", "detail"]
    base = [["channel", True, "max = 1.611e-15"], ["spread", True, "max spread = 3.331e-16"],
            ["channel", True, "max = 1.0e-16"], ["scan", True, "closed - dense = -1.5e-12"],
            ["norm", True, "max norm = nan"], ["other", True, "no draws"]]
    head = [["channel", True, "max = 2.055e-15"], ["spread", True, "max spread = 1.110e-16"],
            ["channel", True, "max = 1.0e-16"], ["scan", True, "closed - dense = -1.0e-12"],
            ["norm", True, "max norm = nan"], ["other", True, "two draws"]]
    detail = diff_datasets((columns, base), (columns, head))["columns"]["detail"]
    assert detail["changed"] == 4 and detail["max_abs"] is None  # still text cells
    rows = detail["by_row"]
    assert set(rows) == {"channel", "spread", "scan", "other"}  # unchanged rows are absent
    assert rows["channel"]["changed"] == 1
    assert math.isclose(rows["channel"]["max_abs"], 4.44e-16, rel_tol=1e-9)
    assert math.isclose(rows["spread"]["max_abs"], 2.221e-16, rel_tol=1e-9)
    assert math.isclose(rows["scan"]["max_abs"], 5e-13, rel_tol=1e-9)
    assert rows["other"] == {"changed": 1, "max_abs": None}  # its words moved


def test_text_delta():
    assert text_delta("max = 1.5e-16", "max = 1.5e-16") == 0.0
    assert math.isclose(text_delta("a 1 b 2.5", "a 1.5 b 2.0"), 0.5)
    assert text_delta("max = 1e-16", "min = 1e-16") is None
    assert text_delta("max = 1e-16", "max = 1e-16, 2") is None
    assert text_delta("K3 = nan", "K3 = nan") == 0.0
    assert text_delta("gain(alpha=pi/4) = inf", "gain(alpha=pi/4) = 1.25") == math.inf


def test_row_moves_add_up_over_items():
    columns = ["check", "detail"]
    total = {}
    for b, h in (("max = 1e-16", "max = 3e-16"), ("max = 2e-16", "max = 2.5e-16")):
        _fold(total, diff_datasets((columns, [["c", b]]), (columns, [["c", h]]))["columns"])
    assert total["detail"]["changed"] == 2 and total["detail"]["max_abs"] is None
    assert total["detail"]["by_row"]["c"]["changed"] == 2
    assert math.isclose(total["detail"]["by_row"]["c"]["max_abs"], 2e-16)

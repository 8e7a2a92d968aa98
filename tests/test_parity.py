"""The dataset diff of tools/parity.py, on hand-written datasets (no subprocess, no git)."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools.parity import diff_datasets, parse_seeds  # noqa: E402

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

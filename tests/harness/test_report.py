"""Table rendering tests."""

import numpy as np

from repro.harness.report import fmt, print_table, seconds, table


def test_fmt_floats():
    assert fmt(0.0) == "0"
    assert fmt(3.14159) == "3.14"
    assert fmt(123456.0) == "1.23e+05"
    assert fmt(0.0001) == "0.0001"
    assert fmt(7) == "7"
    assert fmt("x") == "x"


def test_fmt_normalises_every_zero():
    """No table cell may ever read "-0.0" — negative zeros arrive from
    float subtraction in the analysis layer and from NumPy scalars,
    which are Real but not ``float``."""
    assert fmt(-0.0) == "0"
    assert fmt(np.float32(-0.0)) == "0"
    assert fmt(np.float64(-0.0)) == "0"
    # a tiny negative that *rounds* to zero must not keep its sign
    assert "-0" not in fmt(-1e-300)


def test_fmt_numpy_scalars_match_python_floats():
    assert fmt(np.float64(3.14159)) == fmt(3.14159)
    assert fmt(np.float32(0.5)) == "0.50"
    assert fmt(np.int64(7)) == "7"


def test_fmt_preserves_sign_of_real_negatives():
    assert fmt(-3.14159) == "-3.14"
    assert fmt(-0.0001) == "-0.0001"


def test_fmt_bools_are_not_numbers():
    assert fmt(True) == "True"
    assert fmt(False) == "False"


def test_table_golden():
    out = table("wear", ["slot", "writes", "ratio"],
                [[0, 12, 1.5], [1, 3, -0.0], [2, 123456, 0.375]])
    assert out == "\n".join([
        "== wear ==",
        "slot | writes | ratio",
        "-----+--------+------",
        "   0 |     12 |  1.50",
        "   1 |      3 |     0",
        "   2 | 123456 |  0.38",
    ])


def test_table_golden_wide_header():
    out = table("T", ["a", "long-header"], [[1, 2], [333, 4]])
    assert out == "\n".join([
        "== T ==",
        "a   | long-header",
        "----+------------",
        "  1 |           2",
        "333 |           4",
    ])


def test_table_alignment():
    out = table("T", ["a", "long-header"], [[1, 2], [333, 4]])
    lines = out.split("\n")
    assert lines[0] == "== T =="
    # all body rows share the header row's width
    widths = {len(loc) for loc in lines[1:]}
    assert len(widths) == 1
    assert "long-header" in lines[1]
    assert lines[2].count("+") == 1  # separator between two columns


def test_table_empty_rows():
    out = table("empty", ["x"], [])
    assert "empty" in out
    assert out.count("\n") == 2  # title, header, separator


def test_print_table(capsys):
    print_table("demo", ["k", "v"], [["a", 1]])
    out = capsys.readouterr().out
    assert "== demo ==" in out
    assert "a" in out


def test_seconds():
    assert seconds(2.5e9) == 2.5


def test_analyze_envelope_schema_versioned():
    from repro.harness.report import ANALYZE_SCHEMA, json_payload

    env = json_payload({"static": [], "coverage": [{"rule": "x"}]}, ok=False)
    assert env["schema"] == ANALYZE_SCHEMA == "repro-analyze/v1"
    assert env["ok"] is False
    assert env["sections"] == {"static": [], "coverage": [{"rule": "x"}]}
    assert env["counts"] == {"static": 0, "coverage": 1}

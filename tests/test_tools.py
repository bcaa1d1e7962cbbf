"""tools/compare_outputs.py: the diff of two tools/dump_outputs.py files."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOLS / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OLD = """\
suite/hyperbolic/3/0//lhs 10.0
suite/hyperbolic/3/0//rhs 20.0
suite/hyperbolic/3/1//lhs 4.0
suite/gaussian/3/0//lhs 1.0
path/product/uniform/functional 8.0
path/product/uniform/error 1e-10
perturbation/3/0.8/2/0/5 1.0e-3
perturbation/3/0.8/2/0/6 1.0e-6
"""

NEW = """\
suite/hyperbolic/3/0//lhs 10.000001
suite/hyperbolic/3/0//rhs 20.0
suite/hyperbolic/3/1//lhs 4.004
suite/gaussian/3/0//lhs 1.0
path/product/uniform/functional 8.0
path/product/uniform/error 3e-10
perturbation/3/0.8/2/0/5 1.0005e-3
perturbation/3/0.8/2/0/6 2.0e-6
"""


def _run(compare_outputs, tmp_path, capsys, old, new):
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    code = compare_outputs.main(["compare_outputs.py", str(tmp_path / "old.txt"),
                                 str(tmp_path / "new.txt")])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def _section(lines, title):
    """The indented lines under one heading of the report."""
    start = lines.index(title) + 1
    rows = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        rows.append(line.split())
    return rows


def test_changed_lines_and_largest_change_per_prefix(compare_outputs, tmp_path, capsys):
    code, lines, _ = _run(compare_outputs, tmp_path, capsys, OLD, NEW)
    assert code == 0
    assert lines[0] == "5 of 8 lines changed"
    values = _section(lines, "values:")
    # sorted by prefix; count, largest relative change and the label it is at
    assert [row[0] for row in values] == ["perturbation/3", "suite/hyperbolic"]
    hyperbolic = values[1]
    assert hyperbolic[1] == "2" and float(hyperbolic[6]) == pytest.approx(1e-3, rel=1e-9)
    assert hyperbolic[7] == "(suite/hyperbolic/3/1//lhs)"
    assert float(values[0][6]) == pytest.approx(5e-4, rel=1e-9)


def test_error_estimates_are_listed_apart(compare_outputs, tmp_path, capsys):
    _, lines, _ = _run(compare_outputs, tmp_path, capsys, OLD, NEW)
    errors = _section(lines, "error estimates:")
    assert [(row[0], row[1], row[7]) for row in errors] == [
        ("path/product", "1", "(path/product/uniform/error)"),
        ("perturbation/3", "1", "(perturbation/3/0.8/2/0/6)")]
    assert float(errors[0][6]) == pytest.approx(2.0, rel=1e-9)
    assert not any(row[0] == "path/product" for row in _section(lines, "values:"))
    # the difference moved by 5e-7 against its new error estimate 2e-6
    assert lines[-1].startswith("perturbation differences: largest |change| / own error estimate 0.25 ")


def test_identical_files(compare_outputs, tmp_path, capsys):
    code, lines, _ = _run(compare_outputs, tmp_path, capsys, OLD, OLD)
    assert code == 0 and lines[0] == "0 of 8 lines changed"
    assert "values:" not in lines and "error estimates:" not in lines


@pytest.mark.parametrize("new", [
    OLD.replace("suite/gaussian/3/0//lhs", "suite/gaussian/3/1//lhs"),    # a label differs
    "".join(OLD.splitlines(keepends=True)[:-1]),                          # a line is missing
])
def test_label_lists_that_differ_exit_1(compare_outputs, tmp_path, capsys, new):
    code, lines, err = _run(compare_outputs, tmp_path, capsys, OLD, new)
    assert code == 1 and lines == []
    assert "do not hold the same labels" in err


HEADER = "# numpy 2.0\n# numpy cpu baseline: X86_V2\n# openblas core: SkylakeX\n"


def test_header_lines_are_not_outputs(compare_outputs, tmp_path, capsys):
    code, lines, _ = _run(compare_outputs, tmp_path, capsys, HEADER + OLD, HEADER + NEW)
    assert code == 0
    assert lines[0] == "5 of 8 lines changed"


def test_environments_that_differ_are_named(compare_outputs, tmp_path, capsys):
    other = HEADER.replace("SkylakeX", "Prescott")
    code, lines, _ = _run(compare_outputs, tmp_path, capsys, HEADER + OLD, other + OLD)
    assert code == 0
    assert lines[:4] == ["environments differ:", "  OLD # openblas core: SkylakeX",
                         "  NEW # openblas core: Prescott", "0 of 8 lines changed"]


@pytest.mark.parametrize("old, new, side", [(OLD, HEADER + OLD, "OLD"), (HEADER + OLD, OLD, "NEW")])
def test_a_missing_header_is_an_unknown_environment(compare_outputs, tmp_path, capsys, old, new, side):
    code, lines, _ = _run(compare_outputs, tmp_path, capsys, old, new)
    assert code == 0
    assert lines[:2] == [f"environment unknown: {side} has no environment header", "0 of 8 lines changed"]


@pytest.fixture(scope="module")
def dump_outputs():
    spec = importlib.util.spec_from_file_location("dump_outputs", TOOLS / "dump_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_header_names_the_numeric_environment(dump_outputs, capsys):
    dump_outputs.environment()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == [
        "# numpy cpu baseline", "# numpy cpu dispatch", "# openblas core"]
    assert lines[0].startswith("# numpy ") and all(line.split(": ")[1] for line in lines[1:])


def test_dump_prints_the_radial_primitives(dump_outputs, capsys):
    dump_outputs.radial()
    labels = [line.split(" ")[0] for line in capsys.readouterr().out.splitlines()]
    for space in ("-1:3", "-1:5", "+1:4"):
        for m in (2, 3, 5):
            for u in ("0.0001", "0.3", "0.5", "0.5000000000000001", "1.2"):
                assert f"radial/gaussian/{space}/{m}/{u}" in labels
            assert (f"radial/gaussian/{space}/{m}/7.5" in labels) == space.startswith("-1")
    assert [label for label in labels if label.startswith("radial/phi/")] == [
        f"radial/phi/+1/{m}/{x}" for m in range(1, 7) for x in ("0.001", "0.7", "1.5")]


def test_dump_prints_the_product_pairs(dump_outputs, capsys):
    dump_outputs.product_pairs()
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert [label for label, _ in lines] == [
        f"path/product-pairs/{run}/{key}"
        for run in ("+1:4/uniform/default", "-1:3/gaussian/39-63")
        for key in ("symmetric", "volume", "functional", "section/0", "section/1", "section/2")]
    assert all(value == "True" if label.endswith("/symmetric") else float(value) > 0
               for label, value in lines)

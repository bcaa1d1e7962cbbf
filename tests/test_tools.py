"""tools/compare_outputs.py, the diff of two tools/dump_outputs.py files, and the
committed dump that tools/dump_outputs.py must reproduce."""

import importlib.util
import math
import os
import subprocess
import sys
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
        f"radial/phi/+1/{m}/{x}" for m in range(1, 7) for x in ("0.001", "0.7", "1.5")] + [
        f"radial/phi/{space}/{m}/{x}" for space in ("-1", "+0") for m in range(1, 9)
        for x in ("0.001", "0.7", "1.5", "7.5")]
    assert [label for label in labels if label.startswith("radial/phi-inverse/")] == [
        f"radial/phi-inverse/{space}/{m}/{y}" for space in ("-1", "+0", "+1") for m in (2, 3, 5)
        for y in ("1e-06", "0.3", "0.5")]
    assert len([label for label in labels if label.startswith("radial/sin-power-full/")]) == 8 * 3
    assert [label for label in labels if label.startswith("radial/bound/")] == [
        f"radial/bound/{theorem}/{n}/{vol}/{variant}"
        for theorem, volumes, variants in (("hyperbolic", ("0.1", "1.0", "10.0"), ("proof-chain",)),
                                           ("prop4.1", ("0.1", "1.0", "2.5"), ("proof-chain", "literal")))
        for n in (3, 4, 5) for vol in volumes for variant in variants]


def test_dump_prints_the_product_pairs(dump_outputs, capsys):
    dump_outputs.product_pairs()
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    assert [label for label, _ in lines] == [
        f"path/product-pairs/{run}/{key}"
        for run in ("+1:4/uniform/default", "-1:3/gaussian/39-63")
        for key in ("symmetric", "volume", "functional", "section/0", "section/1", "section/2")]
    assert all(value == "True" if label.endswith("/symmetric") else float(value) > 0
               for label, value in lines)


def test_dump_prints_the_searches(dump_outputs, capsys):
    dump_outputs.searches()
    lines = [line.split(" ") for line in capsys.readouterr().out.splitlines()]
    runs = ("s+:2/sym-star/max/5", "s+:2/star/max/5", "s+:2/sym-star/min/5", "h:2/sym-star/max/1")
    assert [label for label, _ in lines] == [
        f"search/{run}/{key}" for run in runs for key in ("accepted", "evaluations", "best-objective")]
    counts = [int(value) for label, value in lines if not label.endswith("/best-objective")]
    assert all(0 < accepted <= evaluated <= 1000 for accepted, evaluated in zip(counts[::2], counts[1::2]))


# The committed output of tools/dump_outputs.py.  A change that moves numbers
# on purpose regenerates it (python3 tools/dump_outputs.py > tests/data/dump_outputs.txt)
# and lists the moved lines in CHANGES.md.
COMMITTED_DUMP = Path(__file__).resolve().parent / "data" / "dump_outputs.txt"

# Under another numeric environment (the dump's "#" lines: numpy's SIMD
# targets and the OpenBLAS core) roundoff moves, and each value may move by
# its group's bound, relative; the longest label prefix listed names the
# group.  The bounds are about five times the largest moves measured under
# the Haswell and Prescott OpenBLAS cores and without numpy's AVX-512
# dispatch: most values 2.2e-15, band sums and windowed cones 5.7e-14,
# suite/hyperbolic 2.7e-13, the vanishing bodies 1.8e-13, schedule rows
# 2.3e-14 and their excesses 3e-12, perturbation rows 6.6e-11.  An error
# estimate need only stay finite, and a perturbation row's difference may
# move by its own error estimate (it moved by up to 0.53 of it).
PORTABLE_BOUNDS = {
    "": 3e-13,
    "suite/hyperbolic": 1.5e-12,
    "vanishing": 1e-12,
    "schedule": 1.5e-11,
    "perturbation": 3e-10,
}


def portable_moves(compare_outputs, old: str, new: str) -> list[str]:
    """The lines of new that moved from old past the bounds above: labels
    must match in order, words exactly, and values within their group's
    bound."""
    old_lines, new_lines = ([line.split(" ", 1) for line in text.splitlines()
                             if line.strip() and not line.startswith("#")] for text in (old, new))
    if [label for label, _ in old_lines] != [label for label, _ in new_lines]:
        return ["the labels differ"]
    new_values = dict(new_lines)
    moves = []
    for (label, a), (_, b) in zip(old_lines, new_lines):
        if a == b:
            continue
        try:
            x, y = float(a), float(b)
        except ValueError:
            moves.append(f"{label}: {a} -> {b}")
            continue
        row, _, column = label.rpartition("/")
        if compare_outputs.is_error(label):
            ok = math.isfinite(y) and y >= 0.0
        elif label.startswith("perturbation/") and column == compare_outputs.PERTURBATION_DIFFERENCE_COLUMN:
            ok = abs(y - x) <= float(new_values[f"{row}/{compare_outputs.PERTURBATION_ERROR_COLUMN}"])
        else:
            group = max((prefix for prefix in PORTABLE_BOUNDS
                         if label == prefix or label.startswith(prefix + "/") or not prefix), key=len)
            ok = compare_outputs.relative_change(a, b) <= PORTABLE_BOUNDS[group]
        if not ok:
            moves.append(f"{label}: {a} -> {b}")
    return moves


def dump_mismatch(compare_outputs, committed: str, produced: str) -> str:
    """What a dump that differs from the committed one is told by: the
    report of compare_outputs.py on the two, not a diff of every line."""
    lines = compare_outputs.summary(committed, produced)
    return "\n".join([f"the dump differs from {COMMITTED_DUMP.name}:"]
                     + (["the labels differ"] if lines is None else lines))


def test_a_differing_dump_is_told_by_the_report(compare_outputs):
    message = dump_mismatch(compare_outputs, OLD, NEW).splitlines()
    assert message[1] == "5 of 8 lines changed"
    assert "  suite/hyperbolic                    2 changed, largest relative change 0.001 " \
           "(suite/hyperbolic/3/1//lhs)" in message
    assert dump_mismatch(compare_outputs, OLD, OLD[1:]).splitlines()[1] == "the labels differ"


def test_the_dump_matches_the_committed_one(compare_outputs):
    proc = subprocess.run([sys.executable, str(TOOLS / "dump_outputs.py")], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    committed = COMMITTED_DUMP.read_text()
    header = [line for line in committed.splitlines() if line.startswith("#")]
    if header == [line for line in proc.stdout.splitlines() if line.startswith("#")]:
        same = proc.stdout == committed
        assert same, dump_mismatch(compare_outputs, committed, proc.stdout)
    else:
        assert portable_moves(compare_outputs, committed, proc.stdout) == []


# With numpy's AVX-512 dispatch switched off, phi_m(0.001) on h for m = 2..8
# moves past the bounds: a 1-ulp difference of the SIMD transcendental
# kernels, amplified by the cancellation of the radial primitives'
# recurrence (ROADMAP item 9; phi_2 moves by 4.4e-10 relative, phi_6 changes
# sign).  Every other line stays inside PORTABLE_BOUNDS.  Item 9's fix
# empties this list.
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
MOVES_WITHOUT_AVX512 = [f"radial/phi/-1/{m}/0.001" for m in range(2, 9)]


def test_the_dump_without_avx512_moves_only_the_known_lines(compare_outputs):
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": AVX512_OFF}
    proc = subprocess.run([sys.executable, str(TOOLS / "dump_outputs.py")], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    committed = COMMITTED_DUMP.read_text()

    def dispatch(text):
        return [line for line in text.splitlines() if line.startswith("# numpy cpu dispatch")]

    if dispatch(proc.stdout) == dispatch(committed):
        pytest.skip("the committed dump was made without numpy's AVX-512 dispatch")
    moves = portable_moves(compare_outputs, committed, proc.stdout)
    assert [move.split(":")[0] for move in moves] == MOVES_WITHOUT_AVX512, moves


PORTABLE_OLD = """\
# openblas core: SkylakeX
suite/min2d/2/0//lhs 1.0
suite/hyperbolic/3/0//rhs 2.0
suite/hyperbolic/3/0/symmetric True
path/plane/uniform/default/with-error/error 1e-14
perturbation/3/0.8/2/0/5 1.0e-3
perturbation/3/0.8/2/0/6 1.0e-6
schedule/3/0/excess 0.01
"""


@pytest.mark.parametrize("edit, moved", [
    (lambda text: text.replace("SkylakeX", "Haswell"), []),
    (lambda text: text.replace("lhs 1.0", "lhs 1.0000000000001"), []),
    (lambda text: text.replace("lhs 1.0", "lhs 1.000000000001"), ["suite/min2d/2/0//lhs"]),
    (lambda text: text.replace("rhs 2.0", "rhs 2.000000000002"), []),
    (lambda text: text.replace("rhs 2.0", "rhs 2.00000000002"), ["suite/hyperbolic/3/0//rhs"]),
    (lambda text: text.replace("True", "False"), ["suite/hyperbolic/3/0/symmetric"]),
    (lambda text: text.replace("error 1e-14", "error 7e-14"), []),
    (lambda text: text.replace("error 1e-14", "error nan"), ["path/plane/uniform/default/with-error/error"]),
    (lambda text: text.replace("5 1.0e-3", "5 1.0009e-3"), []),
    (lambda text: text.replace("5 1.0e-3", "5 1.0011e-3"), ["perturbation/3/0.8/2/0/5"]),
    (lambda text: text.replace("excess 0.01", "excess 0.0100000000001"), []),
    (lambda text: text.replace("excess 0.01", "excess 0.010000001"), ["schedule/3/0/excess"]),
])
def test_portable_bounds(compare_outputs, edit, moved):
    assert [line.split(":")[0] for line in portable_moves(compare_outputs, PORTABLE_OLD,
                                                           edit(PORTABLE_OLD))] == moved

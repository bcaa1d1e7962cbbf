"""Compare two ``tools/dump_outputs.py`` files, line by line.

    python3 tools/compare_outputs.py OLD NEW

Lines that begin with ``#`` are the dump's environment header, not outputs.
When the two headers differ, the report first says "environments differ"
and lists the differing lines, and when only one file has a header it says
"environment unknown": a dump made under another CPU kernel or BLAS core
moves roundoff that no code change caused.

Then it prints how many lines changed, then, per label prefix (the label up
to its second ``/``, e.g. ``suite/hyperbolic`` or ``path/product``), the number of
changed lines and the largest relative change |new - old| / |old| with the
label where it occurs.  Error-estimate lines (labels ending in ``/error`` and
the perturbation rows' error column) are listed apart: an estimate is a
difference of two quadratures, so its own relative change says little about
the numbers it bounds.  Last comes the largest move of a perturbation row's
difference against that row's own error estimate in NEW.  Exits 1 when the
two files do not hold the same labels in the same order.
"""

from __future__ import annotations

import math
import sys

# the columns of a perturbation row, as dump_outputs.py prints them by index
PERTURBATION_DIFFERENCE_COLUMN = "5"
PERTURBATION_ERROR_COLUMN = "6"


def parse(text: str):
    """The environment header lines and the (label, value) pairs of a dump."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = [line for line in lines if line.startswith("#")]
    return header, [line.split(" ", 1) for line in lines if not line.startswith("#")]


def environment_note(old_header, new_header):
    """The lines that warn of two different or unknown environments."""
    if old_header == new_header:
        return []
    if not old_header or not new_header:
        side = "OLD" if not old_header else "NEW"
        return [f"environment unknown: {side} has no environment header"]
    return (["environments differ:"]
            + [f"  OLD {line}" for line in old_header if line not in new_header]
            + [f"  NEW {line}" for line in new_header if line not in old_header])


def is_error(label: str) -> bool:
    parts = label.split("/")
    return parts[-1] == "error" or (parts[0] == "perturbation"
                                    and parts[-1] == PERTURBATION_ERROR_COLUMN)


def relative_change(old: str, new: str) -> float:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def summary(old_text: str, new_text: str) -> list[str] | None:
    """The lines of the report on two dumps' texts, or None when they do not
    hold the same labels in the same order."""
    (old_header, old), (new_header, new) = parse(old_text), parse(new_text)
    if [label for label, _ in old] != [label for label, _ in new]:
        return None
    groups = {}
    changed = 0
    for (label, a), (_, b) in zip(old, new):
        if a == b:
            continue
        changed += 1
        prefix = "/".join(label.split("/")[:2])
        key = ("error estimates" if is_error(label) else "values", prefix)
        count, worst, where = groups.get(key, (0, -1.0, ""))
        rel = relative_change(a, b)
        groups[key] = (count + 1, max(worst, rel), where if worst >= rel else label)
    out = environment_note(old_header, new_header)
    out.append(f"{changed} of {len(old)} lines changed")
    for kind in ("values", "error estimates"):
        rows = sorted((prefix, stats) for (k, prefix), stats in groups.items() if k == kind)
        if not rows:
            continue
        out.append(f"{kind}:")
        for prefix, (count, worst, where) in rows:
            out.append(f"  {prefix:<32} {count:4d} changed, largest relative change {worst:.3g} ({where})")
    new_values = dict(new)
    moves = []
    for label, a in old:
        row, _, column = label.rpartition("/")
        if label.startswith("perturbation/") and column == PERTURBATION_DIFFERENCE_COLUMN:
            error = float(new_values[f"{row}/{PERTURBATION_ERROR_COLUMN}"])
            moves.append((abs(float(new_values[label]) - float(a)) / error, label))
    if moves:
        ratio, label = max(moves)
        out.append(f"perturbation differences: largest |change| / own error estimate {ratio:.3g} ({label})")
    return out


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/compare_outputs.py OLD NEW", file=sys.stderr)
        return 2
    texts = []
    for path in argv[1:]:
        with open(path) as fh:
            texts.append(fh.read())
    lines = summary(*texts)
    if lines is None:
        print("the two files do not hold the same labels in the same order", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""How far the CLI outputs of one source tree drift from another's.

Runs the five commands of the benchmark's cli_default workload
(synthesize, simulate --open-loop, verify, sweep --axis T and
sweep --axis amplitude) on perfbench/configs/cli_default.ini at one seed,
once with each tree's own src/, one BLAS thread, and prints a Markdown
report: for every output file whose bytes differ, how many of its numbers
changed and the largest relative change |a - b| / max(|a|, |b|), with where
it sits.  Report only: the exit status is 0 whatever drifts.

    python tools/output_drift.py BASE_TREE HEAD_TREE [--seed 7]

The config template is read from HEAD_TREE, so both trees run the same
config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {
    "synthesize": ["synthesize"],
    "simulate": ["simulate", "--open-loop"],
    "verify": ["verify"],
    "sweep_T": ["sweep", "--axis", "T"],
    "sweep_amplitude": ["sweep", "--axis", "amplitude"],
}
RUN_CLI = "import sys; from parastab.cli import main; sys.exit(main(sys.argv[1:]))"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_tree(tree: Path, config: Path, out: Path) -> dict[str, int]:
    """Exit code of every command, its outputs written under out/<command>."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), **ONE_THREAD)
    codes = {}
    for name, argv in COMMANDS.items():
        done = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv, "--config", str(config),
             "--out", str(out / name)],
            env=env, capture_output=True, text=True,
        )
        codes[name] = done.returncode
    return codes


def _csv_fields(text: str) -> list[tuple[str, str]]:
    """(location, field) for every ',' or ';' separated field."""
    return [
        (f"line {i}, field {j}", field)
        for i, line in enumerate(text.splitlines(), start=1)
        for j, field in enumerate(line.replace(";", ",").split(","), start=1)
    ]


def _json_fields(value, where: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict):
        return [f for key, v in value.items() for f in _json_fields(v, f"{where}/{key}")]
    if isinstance(value, list):
        return [f for i, v in enumerate(value) for f in _json_fields(v, f"{where}[{i}]")]
    return [(where or "/", value)]


def _fields(path: Path) -> list[tuple[str, float | str]]:
    text = path.read_text()
    if path.suffix == ".json":
        pairs = _json_fields(json.loads(text))
    else:
        pairs = _csv_fields(text)
    out = []
    for where, value in pairs:
        if isinstance(value, bool) or value is None:
            out.append((where, str(value)))
        else:
            try:
                out.append((where, float(value)))
            except ValueError:
                out.append((where, value))
    return out


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(base: Path, head: Path) -> str:
    """One table row for a file present in both trees with differing bytes."""
    if base.suffix not in (".csv", ".json"):
        return "not a CSV or JSON file | | |"
    old, new = _fields(base), _fields(head)
    if [w for w, _ in old] != [w for w, _ in new]:
        return f"layout differs ({len(old)} against {len(new)} fields) | | |"
    numbers = changed = 0
    worst, worst_at, text_changes = 0.0, "", []
    for (where, a), (_, b) in zip(old, new):
        if isinstance(a, float) and isinstance(b, float):
            numbers += 1
            change = relative_change(a, b)
            changed += change > 0.0
            if change > worst:
                worst, worst_at = change, where
        elif a != b:
            text_changes.append(where)
    row = f"{changed} of {numbers} | {worst:.2g} | {worst_at}"
    if text_changes:
        row += f"; text also differs at {', '.join(text_changes[:3])}"
    return row


def report(base_root: Path, head_root: Path, base_codes: dict, head_codes: dict) -> str:
    lines = ["## CLI output drift against the base (cli_default, report only)", ""]
    for name in COMMANDS:
        if base_codes[name] != head_codes[name]:
            lines.append(f"- `{name}` exits {base_codes[name]} at the base, "
                         f"{head_codes[name]} at the head")
    files = sorted(
        {p.relative_to(base_root) for p in base_root.rglob("*") if p.is_file()}
        | {p.relative_to(head_root) for p in head_root.rglob("*") if p.is_file()}
    )
    rows = []
    for rel in files:
        base, head = base_root / rel, head_root / rel
        if not base.is_file() or not head.is_file():
            rows.append(f"| `{rel}` | only at the {'head' if head.is_file() else 'base'} | | |")
        elif base.read_bytes() != head.read_bytes():
            rows.append(f"| `{rel}` | {compare(base, head)} |")
    lines.append(f"{len(rows)} of {len(files)} outputs differ.")
    if rows:
        lines += ["", "| output | numbers changed | largest relative change | at |",
                  "|---|---|---|---|", *rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    template = (args.head / "perfbench" / "configs" / "cli_default.ini").read_text()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        config = work / "cli_default.ini"
        config.write_text(template.replace("{seed}", str(args.seed)))
        base_codes = run_tree(args.base, config, work / "base")
        head_codes = run_tree(args.head, config, work / "head")
        print(f"seed {args.seed}\n")
        print(report(work / "base", work / "head", base_codes, head_codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""How far the CLI outputs of one source tree drift from another's.

Runs every CLI step of the three benchmark configs in perfbench/configs/
at one seed: the five cli_default commands (synthesize, simulate
--open-loop, verify, sweep --axis T and sweep --axis amplitude), the
multimode synthesize at T = 0.05, 0.2, 1.0 and 2.0 plus its verify at
T = 0.2, and the long_hold simulate.  Six more steps run edited copies
of the configs, so that every run option and every float64 view of a gain
set reaches a compared output: cli_default sweep --axis gamma with a
[sweep] gamma list, cli_default simulate from initial = mode:1 with the
states format (a semilinear run), cli_default simulate with dynamics =
linear and the states format (the node rows of a run stepped in the sine
eigenbasis, which the run builds only when they are read), the multimode
synthesize at T = 0.2 with the matrices format (the N = 3 matrix dump),
and two runs with too few substeps per hold for Crank-Nicolson
(dt*|lambda_1| >= 2): the multimode simulate at T = 2.0 and cli_default
sweep --axis T with 30.0 added to its periods.
One more, cli_default simulate --open-loop with dynamics = linear about
the equilibrium profile 0.1 sin(pi x) read from a file, steps linear runs
on a non-constant potential: the node-space Crank-Nicolson path, which no
benchmark config reaches (their constant potentials are stepped in
closed form in the eigenbasis).
Each runs once with each tree's own src/, one BLAS thread, and the script
prints a Markdown report: a step whose exit code differs, with the last
unindented line each tree wrote to stdout and to stderr, and for every
output file whose bytes differ, how many of its numbers changed and the
largest relative change |a - b| / max(|a|, |b|), with where it sits, and
the head's text of a text field that differs; a file whose fields sit at
other locations instead names the first three locations found in one tree
only.  Report only: the exit status is 0 whatever drifts.

    python tools/output_drift.py BASE_TREE HEAD_TREE [--seed 7]

The config templates are read from HEAD_TREE and filled and edited in a
temporary directory, so both trees run the same configs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

MULTIMODE_PERIODS = ("0.05", "0.2", "1.0", "2.0")
# step name -> (config template, CLI arguments, (old, new) text edits of
# the template); {seed} and {profile} are filled in after the edits
STEPS = {
    "cli_default/synthesize": ("cli_default", ["synthesize"], ()),
    "cli_default/simulate": ("cli_default", ["simulate", "--open-loop"], ()),
    "cli_default/verify": ("cli_default", ["verify"], ()),
    "cli_default/sweep_T": ("cli_default", ["sweep", "--axis", "T"], ()),
    "cli_default/sweep_amplitude": ("cli_default", ["sweep", "--axis", "amplitude"], ()),
    **{f"multimode/synthesize_T{t}": ("multimode", ["synthesize"], (("{period}", t),))
       for t in MULTIMODE_PERIODS},
    "multimode/verify": ("multimode", ["verify"], (("{period}", "0.2"),)),
    "long_hold/simulate": ("long_hold", ["simulate"], ()),
    "cli_default/sweep_gamma": ("cli_default", ["sweep", "--axis", "gamma"],
                                (("[sweep]\n", "[sweep]\ngamma = 2.0;4.0\n"),)),
    "cli_default/simulate_states": ("cli_default", ["simulate"], (
        ("initial = random:{seed}", "initial = mode:1"),
        ("formats = csv,json,svg,modes,matrices", "formats = csv,json,states"),
    )),
    "cli_default/simulate_linear_states": ("cli_default", ["simulate"], (
        ("dynamics = semilinear", "dynamics = linear"),
        ("formats = csv,json,svg,modes,matrices", "formats = csv,json,states"),
    )),
    "multimode/synthesize_matrices": ("multimode", ["synthesize"], (
        ("{period}", "0.2"), ("formats = csv,json", "formats = csv,json,matrices"),
    )),
    "multimode/simulate_T2.0": ("multimode", ["simulate"], (("{period}", "2.0"),)),
    "cli_default/sweep_T30": ("cli_default", ["sweep", "--axis", "T"],
                              (("T = 0.05,0.2,1.0,2.0\n", "T = 0.05,0.2,1.0,2.0,30.0\n"),)),
    "cli_default/simulate_linear_profile": ("cli_default", ["simulate", "--open-loop"], (
        ("dynamics = semilinear", "dynamics = linear"),
        ("equilibrium = 0.0", "equilibrium = file:{profile}"),
    )),
}
RUN_CLI = "import sys; from parastab.cli import main; sys.exit(main(sys.argv[1:]))"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def render_configs(templates: Path, seed: int, work: Path) -> dict[str, Path]:
    """One filled config per step, keyed by step name; the templates are
    only read.  {profile} is a file of 0.1 sin(pi x) on the M + 2 nodes of
    the step's grid, one value per line."""
    paths = {}
    for name, (template, _, edits) in STEPS.items():
        text = (templates / f"{template}.ini").read_text()
        for old, new in edits:
            if old not in text:
                raise SystemExit(f"{name}: {template}.ini has no {old!r} to edit")
            text = text.replace(old, new)
        paths[name] = work / f"{name.replace('/', '_')}.ini"
        if "{profile}" in text:
            nodes = int(re.search(r"^grid_points = (\d+)$", text, re.M).group(1)) + 2
            profile = paths[name].with_suffix(".profile")
            profile.write_text("".join(
                f"{0.1 * math.sin(math.pi * i / (nodes - 1)):.17g}\n" for i in range(nodes)))
            text = text.replace("{profile}", str(profile))
        paths[name].write_text(text.replace("{seed}", str(seed)))
    return paths


def run_tree(tree: Path, configs: dict[str, Path], out: Path) -> dict[str, tuple]:
    """(exit code, last stdout line, last stderr line) of every step, its
    outputs written under out/<step>."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), **ONE_THREAD)
    codes = {}
    for name, (_, argv, _) in STEPS.items():
        done = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *argv, "--config", str(configs[name]),
             "--out", str(out / name)],
            env=env, capture_output=True, text=True,
        )
        codes[name] = (done.returncode, _last_line(done.stdout), _last_line(done.stderr))
    return codes


def _last_line(text: str) -> str:
    """The last line that is not indented: a warning's indented source line
    is skipped for its message."""
    return ([line for line in text.splitlines() if line[:1].strip()] or [""])[-1]


def _entries(cell: str) -> list[str]:
    """A ';'-joined list of numbers as its entries, any other cell whole."""
    parts = cell.split(";")
    try:
        [float(part) for part in parts]
    except ValueError:
        return [cell]
    return parts


def _csv_fields(text: str) -> list[tuple[str, str]]:
    """(location, field) for every CSV cell (a quoted cell is one field),
    with a ';'-joined list of numbers split into its entries."""
    return [
        (f"line {i}, field {j}", field)
        for i, row in enumerate(csv.reader(io.StringIO(text)), start=1)
        for j, field in enumerate([e for cell in row for e in _entries(cell)], start=1)
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
        return "not a CSV or JSON file | |"
    old, new = _fields(base), _fields(head)
    if [w for w, _ in old] != [w for w, _ in new]:
        base_at, head_at = dict(old), dict(new)
        one_sided = [f"{w} (base only)" for w in base_at if w not in head_at]
        one_sided += [f"{w} (head only)" for w in head_at if w not in base_at]
        return (f"layout differs ({len(old)} against {len(new)} fields) | | "
                f"{'; '.join(one_sided[:3])}")
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
            shown = str(b).replace("|", r"\|")  # a bare | would split the table cell
            text_changes.append(f"{where} (head: `{shown}`)")
    row = f"{changed} of {numbers} | {worst:.2g} | {worst_at}"
    if text_changes:
        row += f"; text also differs at {', '.join(text_changes[:3])}"
    return row


def report(base_root: Path, head_root: Path, base_codes: dict, head_codes: dict) -> str:
    lines = ["## CLI output drift against the base "
             "(benchmark and derived CLI steps, report only)", ""]
    for name in STEPS:
        base, head = base_codes[name], head_codes[name]
        if base[0] != head[0]:
            lines.append(f"- `{name}` exits {base[0]} at the base, {head[0]} at the head")
            for tree, (_, out, err) in (("base", base), ("head", head)):
                lines += [f"  - {tree} {stream}: `{last}`"
                          for stream, last in (("stdout", out), ("stderr", err)) if last]
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
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        configs = render_configs(args.head / "perfbench" / "configs", args.seed, work)
        base_codes = run_tree(args.base, configs, work / "base")
        head_codes = run_tree(args.head, configs, work / "head")
        print(f"seed {args.seed}\n")
        print(report(work / "base", work / "head", base_codes, head_codes))
    return 0


if __name__ == "__main__":
    sys.exit(main())

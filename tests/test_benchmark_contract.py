import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# perfbench/run.py pins the BLAS thread variables when it is imported, so
# the check runs in a fresh interpreter instead of this one.
CHECK = """
import sys
sys.path[:0] = sys.argv[1:3]
import run, tracer
t = tracer.Tracer()
wrapped = set(t.install())
t.uninstall()
named = set().union(*(names for names, _ in run.LAYER_ROWS.values()))
print(sorted(named - wrapped))
print(tracer.leftover_wrappers())
"""


def test_benchmark_layer_rows_name_public_layer_functions():
    """Every function a benchmark layer row reads must still exist as a
    public layer function; a missing one makes the traced run incorrect."""
    done = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    missing, leftovers = done.stdout.splitlines()
    assert missing == "[]"
    assert leftovers == "[]"

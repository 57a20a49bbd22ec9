"""Which dpnoise modules a fresh process loads: `import dpnoise` loads none,
and each subcommand only what it uses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpnoise

SRC = str(Path(dpnoise.__file__).parent.parent)

# Runs ``dpnoise.cli.main(argv)``, or only ``import dpnoise`` when argv is
# empty, then prints the exit code and the loaded dpnoise submodules to
# stderr, whose last line it is.
_PROBE = """
import json, sys
import dpnoise
code = None
if sys.argv[1:]:
    import dpnoise.cli
    code = dpnoise.cli.main(sys.argv[1:])
loaded = sorted(m.split(".")[1] for m in sys.modules if m.startswith("dpnoise."))
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def loaded_after(*argv: str) -> tuple:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded)


def test_bare_import_loads_no_submodule():
    assert loaded_after() == (None, set())


def _query(tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("id,spend\n1,2\n2,3\n")
    return ["query", "--input", str(data), "--column", "spend", "--eps", "1",
            "--delta", "1e-5", "--seed", "1",
            "--ledger", str(tmp_path / "ledger.jsonl")]


@pytest.mark.parametrize(
    "argv, never",
    [
        (["calibrate", "--eps", "1", "--delta", "1e-5"],
         {"verifier", "analysis", "bounds"}),
        (["sample", "--eps", "1", "--delta", "1e-5", "--n", "3", "--seed", "1"],
         {"verifier", "analysis", "bounds"}),
        ("query", {"verifier", "analysis", "bounds"}),
        (["bounds", "--eps", "1", "--delta", "1e-5"], {"verifier", "analysis"}),
        (["verify", "--eps", "1", "--delta", "1e-4", "--grid-step", "0.01"],
         {"analysis", "bounds"}),
        (["sweep", "--eps-points", "2", "--delta-points", "2"], {"verifier"}),
    ],
    ids=["calibrate", "sample", "query", "bounds", "verify", "sweep"],
)
def test_subcommand_loads_only_what_it_uses(tmp_path, argv, never):
    argv = _query(tmp_path) if argv == "query" else argv
    code, loaded = loaded_after(*argv)
    assert code == 0
    assert {"cli", "core", "query"} <= loaded
    assert loaded & never == set()


def test_names_and_submodules_resolve_after_a_bare_import():
    probe = (
        "import dpnoise, sys; "
        "assert dpnoise.verifier.discretize is dpnoise.discretize; "
        "assert not hasattr(dpnoise, 'make_rng'); "
        "print(sorted(m for m in sys.modules if m.startswith('dpnoise.'))); "
        "assert all(hasattr(dpnoise, name) for name in dpnoise.__all__)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    ).stdout
    # the verifier and what it imports, and nothing for make_rng
    assert "'dpnoise.verifier'" in out and "'dpnoise.query'" not in out

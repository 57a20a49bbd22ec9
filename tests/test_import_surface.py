"""Which dpnoise modules a fresh process loads: `import dpnoise` loads none,
`import dpnoise.cli` loads no numpy, and each subcommand only what it uses;
the closed forms (`calibrate` of a truncated Laplacian, `bounds`) load no
numpy at all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpnoise

SRC = str(Path(dpnoise.__file__).parent.parent)

# Runs ``dpnoise.cli.main(argv)``, or only ``import dpnoise`` when argv is
# empty, then prints what was loaded before main ran, the exit code and
# what was loaded after it to stderr, whose last line it is.  What was
# loaded is the dpnoise submodules, and "numpy" if numpy was.
_PROBE = """
import json, sys
def loaded():
    names = [m.split(".")[1] for m in sys.modules if m.startswith("dpnoise.")]
    return sorted(names + ["numpy"] * ("numpy" in sys.modules))
import dpnoise
code = None
if sys.argv[1:]:
    import dpnoise.cli
before = loaded()
if sys.argv[1:]:
    code = dpnoise.cli.main(sys.argv[1:])
print(json.dumps([before, code, loaded()]), file=sys.stderr)
"""


def loaded_after(*argv: str) -> tuple:
    """(loaded before main, exit code, loaded after it), each a set."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    before, code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return set(before), code, set(loaded)


def test_bare_import_loads_no_submodule():
    assert loaded_after() == (set(), None, set())


def _query(tmp_path):
    data = tmp_path / "rows.csv"
    data.write_text("id,spend\n1,2\n2,3\n")
    return ["query", "--input", str(data), "--column", "spend", "--eps", "1",
            "--delta", "1e-5", "--seed", "1",
            "--ledger", str(tmp_path / "ledger.jsonl")]


# The modules that only an array, the query pipeline or another mechanism
# needs.
_ARRAYS = {"numpy", "query", "baselines"}


@pytest.mark.parametrize(
    "argv, uses, never",
    [
        (["calibrate", "--eps", "1", "--delta", "1e-5"], {"trunclap"},
         {"verifier", "analysis", "bounds"} | _ARRAYS),
        (["sample", "--eps", "1", "--delta", "1e-5", "--n", "3", "--seed", "1"],
         {"trunclap", "numpy"}, {"verifier", "analysis", "bounds", "query"}),
        ("query", {"query", "numpy"}, {"verifier", "analysis", "bounds"}),
        (["bounds", "--eps", "0.5", "--delta", "1e-5"], {"bounds"},
         {"verifier", "analysis"} | _ARRAYS),
        (["verify", "--eps", "1", "--delta", "1e-4", "--grid-step", "0.01"],
         {"verifier", "numpy"}, {"analysis", "bounds", "query"}),
        (["sweep", "--eps-points", "2", "--delta-points", "2"],
         {"analysis", "numpy"}, {"verifier", "query"}),
    ],
    ids=["calibrate", "sample", "query", "bounds", "verify", "sweep"],
)
def test_subcommand_loads_only_what_it_uses(tmp_path, argv, uses, never):
    argv = _query(tmp_path) if argv == "query" else argv
    before, code, loaded = loaded_after(*argv)
    assert code == 0
    assert before == {"cli", "core"}  # numpy and the pipeline wait for a call
    assert {"cli", "core"} | uses <= loaded
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

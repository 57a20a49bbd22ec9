"""dpnoise benchmark harness: one workload per run.

    python3 perfbench/run.py --workload verify_grid --seed 1 --seconds 20 --trace 0

Run it from the root of a dpnoise checkout; it imports the package from
./src and nothing else.  With ``--trace 0`` it runs whole rounds of the
workload's ops, stops at the round boundary nearest to ``--seconds``, and
reports the end-to-end metrics, with times rescaled to nominal host speed
(see reference.py).  With ``--trace 1`` it runs one round untraced and one
round with spans around the public functions of each module, and reports
per-module metrics; the work is fixed, so counts repeat exactly between
runs.  The last line of stdout is one JSON object; the lines before it
repeat each metric with its unit, the environment and the inputs.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Prints the import time of a fresh interpreter, then the reference kernel's
# (its second run: the first one pays for page faults and warm-up).
IMPORT_CODE = (
    "import sys, time; t = time.perf_counter(); import dpnoise, dpnoise.cli; "
    "t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import reference; "
    "reference.kernel_seconds(); print(t, reference.kernel_seconds())"
)
END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}
OUT_DIR = ".perfbench_work"
PAGE_CACHE = "warm: each input is read once before the timed phase and the page cache is never dropped"


@dataclass
class Op:
    name: str
    seconds: "float | None"  # None when the op raised
    items: int
    ok: bool
    kernel_s: float  # mean of the reference kernel runs just before and after


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest inputs, for the harness self-test")
    return p.parse_args(argv)


def child(env: dict, code: str) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter; (wall seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return time.perf_counter() - start, proc.stdout


def run_round(workload, kernel) -> list[Op]:
    """One round of ops, each bracketed by runs of the reference kernel."""
    ops = []
    before = kernel()
    for name, fn in workload.ops():
        try:
            seconds, items, ok = fn()
        except (Exception, SystemExit):  # an op that raises counts as failed
            traceback.print_exc()
            seconds, items, ok = None, 0, False
        after = kernel()
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
        ops.append(Op(name, seconds, items, ok, (before + after) / 2))
        before = after
    return ops


def nominal_seconds(ops: list[Op]) -> float:
    """Time of the ops that completed, rescaled to nominal host speed."""
    import reference

    return sum(o.seconds * reference.NOMINAL_S / o.kernel_s for o in ops if o.seconds is not None)


def tail(values: list[float]) -> "tuple[float, float] | None":
    """(percentile, value): the highest percentile with ten samples beyond it."""
    values = sorted(values)
    k = len(values) - 11
    return (100.0 * (k + 1) / len(values), values[k]) if k >= 0 else None


def environment(root: Path, seed: int) -> dict:
    def read(path, default=None):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpuinfo = read("/proc/cpuinfo", "")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    commit = "unknown: the checkout is not a git repository"
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": read(cache.format(2)),
        "l3": read(cache.format(3)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "child_thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "page_cache": PAGE_CACHE,
    }


def untraced(workload, seconds: float, kernel) -> tuple[list[Op], dict, list[str]]:
    """Whole rounds for about ``seconds``; end-to-end metrics."""
    ops: list[Op] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        ops += run_round(workload, kernel)
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to the requested duration.
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    done = [o for o in ops if o.seconds is not None]
    busy = sum(o.seconds for o in done)
    times_ms = [o.seconds * 1e3 for o in done]
    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_of_children", False) else resource.RUSAGE_SELF
    items = sum(o.items for o in done)
    values = {
        "items_per_s": items / nominal_seconds(done),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    op = "call" if workload.item == "calls" else "op"
    lines = [
        f"{workload.item}_per_s {values['items_per_s']:.6g} {workload.item}/s at nominal host "
        f"speed (items_per_s); raw {items / busy:.6g} {workload.item}/s, {items} "
        f"{workload.item} in {busy:.3f} s of ops, reference kernel median "
        f"{statistics.median(o.kernel_s for o in ops) * 1e3:.3f} ms",
        f"{op}_p50_ms {statistics.median(times_ms):.6g} ms raw  ({len(done)} ops)",
    ]
    t = tail(times_ms)
    lines.append(
        f"{op}_tail_ms {t[1]:.6g} ms raw  (p{t[0]:.1f} of {len(done)} ops, 10 beyond it)" if t
        else f"{op}_tail_ms n/a  (only {len(done)} ops; a tail needs at least 11)"
    )
    return ops, values, lines


def traced(workload, ctx, spans_path: Path, kernel) -> tuple[list[Op], dict, list[str]]:
    """One untraced round, then one traced round; per-module metrics."""
    import layers

    plain = run_round(workload, kernel)
    first_query = len(ctx.ledger_sizes)
    tracer = Tracer()
    layers.install(tracer, ctx.rows_by_path)
    try:
        with_spans = run_round(workload, kernel)
    finally:
        tracer.restore()
    values = layers.metrics(tracer)
    values["query.ledger_entries"] = max(ctx.ledger_sizes[first_query:], default=0)
    values["verifier.largest_grid_peak_alloc_mb"] = values["verifier.bytes_per_cell"] = 0.0
    values.update(getattr(workload, "probe", dict)())
    samples = max(3, ctx.scale.setup_samples)
    values["cli.interp_s"] = statistics.median(child(ctx.env, "pass")[0] for _ in range(samples))
    values["cli.import_s"] = statistics.median(
        float(child(ctx.env, IMPORT_CODE)[1].split()[0]) for _ in range(samples))
    values["trace.overhead_ratio"] = nominal_seconds(with_spans) / nominal_seconds(plain)
    tracer.dump(spans_path)
    lines = [f"{len(tracer.spans)} spans written to {spans_path}"]
    if tracer.missing:
        lines.append("not wrapped (no longer defined): " + ", ".join(tracer.missing))
    return plain + with_spans, {k: values[k] for k in layers.UNITS}, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dpnoise" / "__init__.py").is_file():
        print(f"error: {src / 'dpnoise'} not found; run from the root of a dpnoise checkout",
              file=sys.stderr)
        return 2
    # Children inherit these; numpy reads them when it is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and its children, so that the reference
    # kernel runs on the core the ops run on; core speeds differ on a
    # shared host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import dpnoise
    import dpnoise.cli  # noqa: F401
    own_import = time.perf_counter() - start
    if not Path(dpnoise.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: dpnoise was imported from {dpnoise.__file__}, not {src}", file=sys.stderr)
        return 2

    # Imported only now: they load numpy, which reads the thread settings.
    import layers
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    work = out / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scale = workloads.SMOKE if args.smoke else workloads.FULL
        ctx = workloads.Context(args.seed, scale, work, dict(os.environ))
        workload = workloads.WORKLOADS[args.workload](ctx, in_process=bool(args.trace))
        inputs = workload.prepare()
        kernel = reference.kernel_seconds
        kernel()  # warm-up
        if args.trace:
            ops, values, lines = traced(workload, ctx, out / f"spans-{args.workload}.json", kernel)
            units = layers.UNITS
        else:
            # (import seconds, kernel seconds) per fresh process, this one first
            setup = [(own_import, kernel())] + [
                tuple(map(float, child(ctx.env, IMPORT_CODE)[1].split()))
                for _ in range(scale.setup_samples - 1)]
            ops, values, lines = untraced(workload, args.seconds, kernel)
            values = {"setup_s": statistics.median(
                t * reference.NOMINAL_S / k for t, k in setup), **values}
            lines.insert(0, "setup_s at nominal host speed: median of fresh imports of dpnoise "
                            "and dpnoise.cli; raw " + " ".join(f"{t:.4f}" for t, _ in setup)
                            + " s, kernel " + " ".join(f"{k * 1e3:.2f}" for _, k in setup) + " ms")
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o.ok for o in ops)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(root, args.seed), "inputs": inputs,
        "ops": [[o.name, o.seconds, o.items, o.ok, o.kernel_s] for o in ops],
        "metrics": metrics,
    }
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# environment " + json.dumps(record["environment"]))
    print("# inputs " + json.dumps(inputs))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(f"failed_ratio {failed / len(ops):.6g} ratio  ({failed} of {len(ops)} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

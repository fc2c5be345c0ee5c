"""Benchmark for leecodes: one workload, one seed, one line of JSON.

Usage:
    python3 perfbench/run.py --workload {decode,certify,search,cli}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from ./src.
The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
from probe import Probe
from workloads import OUT, PROCESS_TIMEOUT_S, WORKLOADS, Ops

ROOT = Path.cwd()
MODULES = ("codes", "decoder", "groups", "lee", "nonregular", "tiling")
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s", "ops_per_s": "1/s"}
SETUP_SAMPLES = 3  # this process plus two fresh ones
IMPORT_SAMPLES = 5


def import_leecodes(tracer):
    sys.path.insert(0, str(ROOT / "src"))
    mods = {name: importlib.import_module(f"leecodes.{name}") for name in MODULES}
    if tracer is not None:
        mods = {name: tracer.proxy(mod) for name, mod in mods.items()}
    return SimpleNamespace(root=ROOT, tracer=tracer, **mods)


def timed_setup(workload, tracer, probe):
    """Everything before the first timed operation, import included.

    Returns (raw seconds, nominal seconds); the probe must be running.
    """
    spent = probe.spent
    start = time.perf_counter_ns()
    workload.setup(import_leecodes(tracer))
    end = time.perf_counter_ns()
    raw = end - start - (probe.spent - spent)
    return raw / 1e9, probe.nominal(raw, start, end) / 1e9


def setup_in_fresh_process(args):
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def cold_import_ms():
    """Median cold `import leecodes` minus median bare interpreter start."""
    def wall(code):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       timeout=PROCESS_TIMEOUT_S)
        return time.perf_counter_ns() - start

    path = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})"
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(wall(path))
        full.append(wall(path + "; import leecodes"))
    return (statistics.median(full) - statistics.median(bare)) / 1e6


def peak_rss_kib(who):
    return resource.getrusage(who).ru_maxrss  # in KiB on Linux


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="length of the timed part; required")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-check", action="store_true",
                   help="run every check on reduced inputs, then on corrupted answers")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if not (args.self_check or args.setup_only) and args.seconds is None:
        p.error("--seconds is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "leecodes" / "__init__.py").is_file():
        print(f"no leecodes sources under {ROOT / 'src'}; run from the checkout root",
              file=sys.stderr)
        return 2
    if args.self_check:
        import selfcheck
        return selfcheck.main(ROOT)

    workload = WORKLOADS[args.workload](args.seed)
    probe = Probe()
    if args.setup_only:
        probe.start()
        try:
            print(json.dumps({"setup_s": timed_setup(workload, None, probe)}))
        finally:
            probe.stop()
            workload.close()
        return 0

    (ROOT / OUT).mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ops = Ops(probe, workload.in_process)
    workload.prepare_checks(ops)
    probe.start()
    try:
        setups = [timed_setup(workload, tracer, probe)]
        passes = 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            if tracer is not None:
                tracer.phase = passes
            ops.pass_no = passes
            workload.run_pass(ops, tracer)
            ops.flush()
            passes += 1
    finally:
        probe.stop()
        workload.close()
    ops.flush(final=True)
    # read before the summary below builds lists as long as the run
    own_peak_kib = peak_rss_kib(resource.RUSAGE_SELF)

    if not ops.times:
        print(f"every one of {ops.attempted} operations failed", file=sys.stderr)
        return 1
    times = sorted(ops.times)
    pass_times = ops.pass_times()
    scale = ops.scale()
    summary = (f"# {args.workload} seed={args.seed}: {passes} passes, "
               f"{ops.attempted} operations, {ops.failed} failed, {len(ops.wrong)} wrong; "
               f"nominal pass median {statistics.median(pass_times) / 1e9:.5f} s, "
               f"operation median {statistics.median(times) / 1e6:.4f} ms")
    if len(times) >= 1000:
        summary += f", p99 {times[int(0.99 * len(times))] / 1e6:.4f} ms ({len(times)} samples)"
    summary += f"; raw pass median {statistics.median(ops.pass_times(raw=True)) / 1e9:.5f} s"
    summary += (f"; {len(probe.took)} probes in this process, median "
                f"{statistics.median(probe.took) / 1e3:.1f} us; scale {scale:.4f}")
    if tracer is not None:
        metrics = tracing.layer_metrics(tracer, cold_import_ms() * scale, scale)
        tracer.dump(ROOT / OUT / f"trace-{args.workload}-{args.seed}.json")
    else:
        setups += [setup_in_fresh_process(args) for _ in range(SETUP_SAMPLES - 1)]
        summary += f"; raw set-up samples {[round(s, 4) for s, _ in setups]} s"
        values = {
            "setup_s": statistics.median(nominal for _, nominal in setups),
            "peak_rss_mb": max(own_peak_kib, peak_rss_kib(resource.RUSAGE_CHILDREN)) / 1024,
            "pass_s": statistics.median(pass_times) / 1e9,
            "ops_per_s": len(times) / (sum(times) / 1e9),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(summary)
    print(json.dumps({"correct": not ops.wrong, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qsca benchmark: one workload per run, in one fresh Python process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports qsca from src/.  The load
is a closed loop with one client: a pass runs the workload's whole list
of verifications, then the next pass starts, until the passes have
taken S seconds and at least four have run.  The process starts no
threads, and BLAS runs on one thread: on a shared 2-core host a second
BLAS thread turns every neighbour's burst into a stall of the whole
call, so timings spread several-fold.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates
untraced and traced passes and reports per-layer metrics, the tracing
overhead and host copy bandwidth.  Every pass checks every verdict; the
last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Before numpy loads; child processes (setup samples, CLI commands, the
# copy probe) inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Only the standard library here: numpy and scipy must first load inside
# setup_sample's timed `import qsca`.
from harness import Tracer, layer_metrics, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("uf-operator", "block-propagation", "cli-cold")

SETUP_SAMPLES = 3        # fresh interpreters per run that import, generate, pass once
MIN_PASSES = 4           # warm passes per run even when a pass is long
CLI_IMPORT_SAMPLES = 5   # fresh interpreters per run that import qsca.cli
STATE_BYTES = 2 * 16 * 2 ** 20     # a 2^20-amplitude state copied into a second one
DRAM_BYTES = 4 * 300 * 2 ** 20     # four times the 300 MiB L3 of the 2-core test host
CHILD_TIMEOUT = 120

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("check_fail_ratio", "ratio"), ("checks_run", "count"),
    ("verdict_s.samples", "count"), ("verdict_s.traced", "s"),
    ("trace.overhead_s", "s"), ("bench.self_s", "s"),
    ("sca_core.self_s", "s"), ("sca_core.evolve.s", "s"),
    ("sca_core.evolve.r2.s", "s"), ("sca_core.evolve.cells_per_s", "1/s"),
    ("sca_core.frt_check.s", "s"), ("sca_core.frt_check.useful_ratio", "ratio"),
    ("sca_core.frt_check.attempts", "count"),
    ("quantize.self_s", "s"), ("quantize.check_partial_isometry.r3.s", "s"),
    ("quantize.check_partial_isometry.r4.s", "s"),
    ("quantize.build_uf_matrix.s", "s"), ("quantize.partition_basis.s", "s"),
    ("quantize.parallelism_demo.s", "s"), ("quantize.total_step.s", "s"),
    ("qstate.self_s", "s"), ("qstate.apply_circuit.s", "s"),
    ("qstate.apply_circuit.gbps_computed", "GB/s"),
    ("host.copy_gbps.state", "GB/s"), ("host.copy_gbps.dram", "GB/s"),
    ("qstate.circuit_matrix.s", "s"),
    ("frt_quantum.self_s", "s"), ("frt_quantum.stage_check.compiled.s", "s"),
    ("frt_quantum.stage_check.gates.s", "s"),
    ("frt_quantum.instances_per_s", "1/s"), ("frt_quantum.instances", "count"),
    ("frt_quantum.mismatches", "count"),
    ("spin_chain.self_s", "s"), ("spin_chain.sum_product_gap.s", "s"),
    ("spin_chain.to_dense.s", "s"),
    ("unitary_compile.self_s", "s"), ("unitary_compile.reck_decompose.s", "s"),
    ("unitary_compile.reck_reconstruct.s", "s"),
    ("unitary_compile.reck_reconstruct.n128.s", "s"),
    ("unitary_compile.rotations", "count"),
    ("cli.self_s", "s"), ("cli.check.s", "s"), ("cli.uf_check.s", "s"),
    ("cli.frt_quantum.s", "s"), ("cli.evolve.s", "s"), ("cli.reck.s", "s"),
    ("cli.nonzero_exits", "count"),
)
EXACT_COUNTS = ("sca_core.frt_check.attempts", "frt_quantum.instances",
                "frt_quantum.mismatches", "unitary_compile.rotations",
                "cli.nonzero_exits")

CLI_IMPORT = ("import time; t = time.perf_counter(); import qsca.cli; "
              "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_sample(name: str, seed: int, workdir: Path):
    """Time to first verdict in this interpreter.

    import qsca + generating inputs + the first pass with its checks;
    computing the oracle's references is excluded.
    """
    tracer = Tracer()
    start = time.perf_counter()
    import qsca  # noqa: F401  (timed: numpy, scipy and the package)
    import_s = time.perf_counter() - start
    import workloads
    start = time.perf_counter()
    wl = workloads.make(name, seed, ROOT, workdir)
    inputs_s = time.perf_counter() - start
    wl.prepare()
    ctx, cold_s = run_pass(tracer, 0, wl.units())
    return import_s + inputs_s + cold_s, wl, ctx, tracer


def _child(argv: list[str], env=None) -> str:
    res = subprocess.run(argv, capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=CHILD_TIMEOUT)
    if res.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited {res.returncode}: "
                           f"{res.stderr.strip()[-500:]}")
    return res.stdout.strip().splitlines()[-1]


def run(args, workdir: Path) -> dict:
    cli = args.workload == "cli-cold"
    children = []   # (checks, failed, first_failure) of setup children
    if cli:
        import workloads
        tracer = Tracer()
        wl = workloads.make(args.workload, args.seed, ROOT, workdir)
        wl.prepare()
        cold, _ = run_pass(tracer, 0, wl.units())
        setups = []

        def setup_job():
            setups.append(float(_child([sys.executable, "-c", CLI_IMPORT],
                                       env=workloads.cli_env(ROOT))))
        setup_jobs = [setup_job] * CLI_IMPORT_SAMPLES
    else:
        setup_s, wl, cold, tracer = setup_sample(args.workload, args.seed,
                                                 workdir)
        setups = [setup_s]

        def setup_job():
            child = json.loads(_child([
                sys.executable, str(HERE / "run.py"), "--workload",
                args.workload, "--seed", str(args.seed), "--setup-child"]))
            setups.append(child["setup_s"])
            children.append((child["checks"], child["failed"],
                             child["first_failure"]))
        setup_jobs = [setup_job] * (SETUP_SAMPLES - 1)

    # One setup sample after each warm pass: the passes then spread over
    # the whole run, so a slow minute of the shared host weighs less in
    # their median.  Only pass time counts towards --seconds.
    units = wl.units()
    untraced, traced = [], []
    measured = 0.0
    pass_id = 1
    while measured < args.seconds or len(untraced) + len(traced) < MIN_PASSES:
        tracer.enabled = bool(args.trace) and pass_id % 2 == 0
        ctx, seconds = run_pass(tracer, pass_id, units, reference=cold)
        (traced if tracer.enabled else untraced).append((ctx, seconds))
        measured += seconds
        pass_id += 1
        if setup_jobs:
            setup_jobs.pop()()
    for job in setup_jobs:
        job()
    tracer.enabled = False

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli
                               else resource.RUSAGE_SELF)
    contexts = [cold] + [c for c, _ in untraced + traced]
    checks = sum(c.checks for c in contexts) + sum(c[0] for c in children)
    failed = sum(c.failed for c in contexts) + sum(c[1] for c in children)
    first = next((c.first_failure for c in contexts if c.first_failure),
                 next((c[2] for c in children if c[2]), None))
    verdict_s = statistics.median(s for _, s in untraced)
    result = {
        "checks": checks, "failed": failed, "first_failure": first,
        "samples": len(untraced), "setup_samples": len(setups),
        "metrics": {
            "verdict_s": verdict_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        },
    }
    if args.trace:
        result["metrics"].update(_per_layer(tracer, traced, verdict_s, cold,
                                            checks, failed, len(untraced)))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.as_records()))
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def _per_layer(tracer, traced, verdict_s, cold, checks, failed, samples):
    import copy_probe
    m = layer_metrics(tracer, [c for c, _ in traced])
    traced_s = statistics.median(s for _, s in traced)
    counts = cold.counts
    attempts = counts.get("sca_core.frt_check.attempts", 0)
    m.update({
        "check_fail_ratio": failed / checks,
        "checks_run": checks,
        "verdict_s.samples": samples,
        "verdict_s.traced": traced_s,
        "trace.overhead_s": traced_s - verdict_s,
        "sca_core.frt_check.useful_ratio": (
            counts.get("sca_core.frt_check.held", 0) / attempts
            if attempts else 0.0),
        "host.copy_gbps.state": copy_probe.copy_gbps(STATE_BYTES, 50),
        "host.copy_gbps.dram": float(_child([
            sys.executable, str(HERE / "copy_probe.py"), str(DRAM_BYTES),
            "5"])),
    })
    m.update({k: counts.get(k, 0) for k in EXACT_COUNTS})
    return m


def report(args, result: dict) -> None:
    spec = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in spec}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"  verdict_s is the median of {result['samples']} untraced warm "
          "passes; with 20 or fewer samples no tail percentile is reported")
    if not args.trace:
        print(f"  setup_s is the median of {result['setup_samples']} fresh "
              "interpreters")
    else:
        print(f"  copy probes: {STATE_BYTES >> 20} MiB and "
              f"{DRAM_BYTES >> 20} MiB arrays (last-level cache 300 MiB); "
              "apply_circuit GB/s is computed as gates x 2^n x 16 B x 2")
        print(f"  spans written to {result['spans_file']}")
    print(f"  check_fail_ratio {result['failed'] / result['checks']:.6g} "
          f"({result['failed']} of {result['checks']} checks failed)")
    if result["first_failure"]:
        print(f"  first failing check: {result['first_failure']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["checks"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsca" / "cli.py").is_file():
        print(f"error: qsca sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        # cli-cold times imports instead, so no input files are written here
        setup_s, _, ctx, _ = setup_sample(args.workload, args.seed, OUT)
        print(json.dumps({"setup_s": setup_s, "checks": ctx.checks,
                          "failed": ctx.failed,
                          "first_failure": ctx.first_failure}))
        return 0
    # bytecode is compiled once here, the build step, so no sample pays it
    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

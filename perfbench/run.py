"""The repository benchmark: one command, three workloads, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table_bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
layer ladder instead and reports the per-layer metrics (see
``perfbench/README.md``). Every measured metric is printed as a
``name value unit`` line; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, the latter holding the metrics ``BENCHMARK.json`` declares. The exit code is non-zero when
any correctness check failed.

The program under test is the ``src/`` tree next to this directory; the
benchmark refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table_bulk", "solve_bulk", "wire_durable")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget the timed work is sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the layer ladder for per-layer metrics")
    return parser.parse_args(argv)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, size=None, log=print, tamper=None) -> dict:
    """One run; returns the result object printed as the last line.

    ``size`` overrides the workload's scaled size and ``tamper`` is
    handed to the mirror check (both for the benchmark's self-test).
    """
    import common
    import workloads
    from gate import Gate

    size = size or common.scaled(workloads.SIZES[workload], seconds)
    inputs = common.build_inputs(seed, size)
    mode = workloads.MODES[workload]
    gate = Gate(tamper)
    log(f"# env {json.dumps(common.environment(ROOT), sort_keys=True)}")
    log(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)} "
        f"mode {mode} tenants {','.join(inputs.tenants)}")
    if trace:
        import ladder

        metrics, ops = ladder.run_ladder(
            workload, inputs, size, ROOT, workdir, gate, log
        )
    else:
        if workload == "wire_durable":
            deployment = workloads.Wire(ROOT, workdir, inputs, mode)
        else:
            deployment = workloads.InProcess(inputs, mode)
        try:
            metrics, ops = workloads.run_e2e(
                workload, inputs, size, deployment, gate, log
            )
        finally:
            deployment.stop()
        log(f"failed_ratio {ops.failed / max(ops.attempted, 1):.6f} 1")
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    for failure in gate.failures:
        log(f"CHECK FAILED: {failure}")
    log(f"# correctness checks: {gate.checks}, failed: {len(gate.failures)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares unmeasured metrics {missing}")
    return {
        "correct": gate.ok,
        "attempted": int(ops.attempted),
        "failed": int(ops.failed),
        "metrics": {
            name: {"value": float(metrics[name][0]), "unit": metrics[name][1]}
            for name in names
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program to measure ({ROOT / 'src' / 'repro'} "
              "is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

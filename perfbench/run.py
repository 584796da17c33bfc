"""End-to-end benchmark of ``repro`` at the process and HTTP boundary.

One run::

    python3 perfbench/run.py --workload cli_singleton --seed 1 --seconds 20 --trace 0

runs one workload against the checkout's ``src`` tree and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Notes (failed
checks, the traced run's layer shares and the program's own stage
partition) go to standard error.

Steadiness report::

    python3 perfbench/run.py --report --workload service_mixed --runs 10

repeats the workload over seeds ``1..N`` in fresh processes and prints,
for each end-to-end metric, its median, quartiles and run-to-run spread
beside the bound ``BENCHMARK.json`` gives it.

Inputs and oracle answers, for inspection::

    python3 perfbench/run.py --emit-inputs DIR --workload cli_composite --seed 1

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli_singleton", "cli_composite", "service_mixed")


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="repeat the workload and report each metric's spread")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs of the steadiness report (seeds first-seed..)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--emit-inputs", metavar="DIR", default=None,
                        help="write the workload's inputs and oracle answers to DIR")
    arguments = parser.parse_args(argv)
    if arguments.seconds is None:
        arguments.seconds = float(benchmark_spec()["run_seconds"])
    if arguments.seconds <= 0 or arguments.runs < 2:
        parser.error("--seconds must be positive and --runs at least 2")
    return arguments


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    arguments = parse_arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if arguments.report:
        return steadiness_report(arguments)
    if arguments.emit_inputs:
        return emit_inputs(arguments)

    workdir = ROOT / ".perfbench_work" / (
        f"{arguments.workload}-{arguments.seed}-{os.getpid()}"
    )
    (workdir / "tmp").mkdir(parents=True)
    # The program's own temporary files (the daemon's ingest spills) stay
    # inside the checkout too; children inherit the setting.
    os.environ["TMPDIR"] = str(workdir / "tmp")

    import workloads

    try:
        outcome = workloads.WORKLOADS[arguments.workload](
            arguments.seed, arguments.seconds, bool(arguments.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    result = {
        "correct": True,  # see workloads.Outcome
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def steadiness_report(arguments: argparse.Namespace) -> int:
    """Run the workload over *runs* seeds; print each end-to-end metric's
    median, quartiles and spread beside its bound."""
    import stats

    spec = benchmark_spec()
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = []
    for seed in range(arguments.first_seed, arguments.first_seed + arguments.runs):
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", arguments.workload,
             "--seed", str(seed), "--seconds", str(arguments.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {completed.returncode}")
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        line = [f"seed {seed}: attempted {result['attempted']} failed {result['failed']}"]
        for name in bounds:
            value = result["metrics"][name]["value"]
            values[name].append(value)
            line.append(f"{name}={value:.6g}")
        print(" ".join(line), flush=True)
    print(f"\n{arguments.workload}: {arguments.runs} runs of {arguments.seconds:g} s; "
          f"failed share per run {sorted(set(shares))}")
    print(f"{'metric':18s} {'unit':6s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
          f"{'spread':>8s} {'bound':>7s}  verdict")
    for name, metric in bounds.items():
        q1, q2, q3 = stats.quartiles(values[name])
        spread = stats.spread(values[name])
        bound = metric["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "WIDER THAN BOUND")
        if name == "setup_s":
            verdict += " (spread not gated)"
        print(f"{name:18s} {metric['unit']:6s} {q1:10.5g} {q2:10.5g} {q3:10.5g} "
              f"{spread:8.2%} {bound:7.0%}  {verdict}")
    return 0


def emit_inputs(arguments: argparse.Namespace) -> int:
    """Write one workload's inputs, ground truth and oracle answers."""
    import inputs
    import workloads

    directory = Path(arguments.emit_inputs).resolve()
    directory.mkdir(parents=True, exist_ok=True)
    seed = arguments.seed
    if arguments.workload == "cli_singleton":
        pairs = inputs.singleton_pairs(seed, directory)
        oracle = [["--labels", "--kernel", "reference"]] * len(pairs)
    elif arguments.workload == "cli_composite":
        pairs = inputs.composite_pairs(seed, directory)
        oracle = [["--composite", "--labels", "--no-incremental"]] * len(pairs)
    else:
        service = inputs.service_inputs(seed, directory)
        pairs = [*service.read_pairs, service.chain.pair]
        oracle = [[]] * len(pairs)
    inputs.write_truth(pairs, directory / "truth.json")
    answers = {
        pair.name: workloads.in_process_answer(
            ["match", str(pair.first), str(pair.second), *flags])
        for pair, flags in zip(pairs, oracle)
    }
    (directory / "oracle.json").write_text(
        json.dumps(answers, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pairs)} pairs, truth.json and oracle.json to {directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

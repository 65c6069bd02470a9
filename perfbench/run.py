"""One benchmark command for the PathEnum reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload short-k3 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
runs the same workload once untraced and once with every layer wrapped,
and prints the per-layer metrics.  Either way the outputs are checked for
correctness, every metric is printed by name with its unit, and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads and metrics are registered in
``BENCHMARK.json`` at the repository root; ``perfbench/README.md`` says
why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("short-k3", "long-k4", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # Replace the script directory, whose module names (trace, ...) would
    # shadow the standard library, with the program source and the root.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inline, serve
    from perfbench.trace import write_spans

    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=ROOT / "perfbench") as workdir:
        if args.workload == "serve-mixed":
            report = serve.run(seed=args.seed, seconds=args.seconds, trace=trace, workdir=Path(workdir), root=ROOT)
        else:
            report = inline.run(args.workload, seed=args.seed, seconds=args.seconds, trace=trace, workdir=Path(workdir))
    if trace:
        traces = ROOT / "perfbench" / "_traces"
        traces.mkdir(exist_ok=True)
        write_spans(traces / f"{args.workload}.json.gz", report.spans)
        report.notes.append(f"{len(report.spans)} spans written to perfbench/_traces/{args.workload}.json.gz")
    for line in report.lines(trace):
        print(line)
    print(json.dumps(report.result(trace)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())

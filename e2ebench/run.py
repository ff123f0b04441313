"""Entry point of one benchmark run (the command in BENCHMARK.json).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints human-readable metric lines, then — as the last line of standard
output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics with all
tracing off; ``--trace 1`` runs the traced pass and reports the
per-layer metrics.  Exit code 0 means the run measured; a failed
correctness check is reported in the object (``correct: false``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    """Put the benchmark and the product (from source) on the path."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"e2ebench: no product source at {SRC}/repro; nothing to "
            "measure\n"
        )
        raise SystemExit(2)
    sys.path[:0] = [ROOT, SRC]


def main(argv=None) -> int:
    _bootstrap()
    from e2ebench import child, gen, harness, metrics, workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(metrics.RUN_SECONDS)
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fixtures (plumbing only)"
    )
    parser.add_argument("--spans-out", help="write the traced pass's spans")
    parser.add_argument("--detail-out", help="write the run's detail JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child.child_main(args.child)
    if not args.workload:
        parser.error("--workload is required")

    run = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.SMOKE if args.smoke else workloads.FULL,
        spans_out=args.spans_out,
    )
    line, detail = run["line"], run["detail"]
    if args.detail_out:
        with open(args.detail_out, "w", encoding="utf-8") as out:
            json.dump(run, out, indent=1)
    print(
        f"# {args.workload} seed={args.seed} kernel={detail['kernel']} "
        f"samples={detail['samples']} attempted={line['attempted']} "
        f"failed={line['failed']} verify_s={detail['verify_s']:.3f}"
    )
    for error in detail["errors"]:
        print(f"# error: {error}")
    for name, metric in line["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

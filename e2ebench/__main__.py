"""``python -m e2ebench run|compare`` — the whole benchmark in one go.

``run`` measures all five workloads, each as its own ``run.py`` process
(untraced pass, then traced pass), and folds the results into one
``OUT.json`` plus the traced passes' spans in ``OUT.trace.json``.
``compare`` sets two such results (or two sets of them) side by side.

    PYTHONPATH=src python -m e2ebench run --seed N --out OUT.json
    PYTHONPATH=src python -m e2ebench compare A.json B.json
    PYTHONPATH=src python -m e2ebench compare --base A*.json --new B*.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from typing import Any, Dict, List, Optional

from e2ebench import compare, gen, harness, metrics, workloads

RUN_PY = os.path.join(harness.ROOT, "e2ebench", "run.py")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # e.g. an exported checkout


def _numpy_version() -> Optional[str]:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _read_and_remove(path: str) -> Any:
    with open(path, encoding="utf-8") as infile:
        loaded = json.load(infile)
    os.unlink(path)
    return loaded


def _one_run(
    name: str, args: argparse.Namespace, trace: int, out_base: str
) -> Dict[str, Any]:
    """One ``run.py`` process; the traced pass also brings its spans."""
    detail_path = f"{out_base}.{name}.{trace}.tmp"
    spans_path = f"{out_base}.{name}.spans.tmp"
    command = [
        sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail-out", detail_path,
    ]
    if args.smoke:
        command.append("--smoke")
    if trace:
        command += ["--spans-out", spans_path]
    subprocess.run(command, check=True)
    run = _read_and_remove(detail_path)
    if trace:
        run["spans"] = _read_and_remove(spans_path)
    return run


def cmd_run(args: argparse.Namespace) -> int:
    harness.refuse_free_env()
    out_base = args.out[:-5] if args.out.endswith(".json") else args.out
    result: Dict[str, Any] = {
        "schema": "e2ebench/1",
        "stamp": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg()[0],
            "python": platform.python_version(),
            "numpy": _numpy_version(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    spans: Dict[str, List[Any]] = {}
    for name in workloads.WORKLOADS:
        untraced = _one_run(name, args, 0, out_base)
        traced = _one_run(name, args, 1, out_base)
        spans[name] = traced["spans"]
        detail = untraced["detail"]
        end_to_end = dict(untraced["line"]["metrics"])
        end_to_end["error_rate"] = {
            "value": max(
                detail["error_rate"], traced["detail"]["error_rate"]
            ),
            "unit": "ratio",
        }
        result["stamp"]["kernel"] = detail["kernel"]
        result["workloads"][name] = {
            "why": workloads.WORKLOADS[name].why,
            "end_to_end": end_to_end,
            "per_layer": traced["line"]["metrics"],
            "attempted": untraced["line"]["attempted"],
            "failed": untraced["line"]["failed"],
            "traced_attempted": traced["line"]["attempted"],
            "traced_failed": traced["line"]["failed"],
            **{
                key: detail[key]
                for key in ("samples", "wall_s", "verify_s", "sha256",
                            "sizes", "errors")
            },
        }
    with open(f"{out_base}.json", "w", encoding="utf-8") as out:
        json.dump(result, out, indent=1)
    with open(f"{out_base}.trace.json", "w", encoding="utf-8") as out:
        json.dump(spans, out)
    wrong = [
        name for name, entry in result["workloads"].items()
        if entry["end_to_end"]["error_rate"]["value"] > 0
    ]
    if wrong:
        print(f"error_rate > 0 on: {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.base or args.new:
        if not (args.base and args.new) or args.files:
            raise SystemExit("compare: give --base and --new, or two files")
        return compare.main(args.base, args.new)
    if len(args.files) != 2:
        raise SystemExit("compare: give --base and --new, or two files")
    return compare.main(args.files[:1], args.files[1:])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    run.add_argument("--out", required=True, help="OUT.json")
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--smoke", action="store_true")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two (sets of) results")
    cmp_.add_argument("files", nargs="*")
    cmp_.add_argument("--base", nargs="+")
    cmp_.add_argument("--new", nargs="+")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    if args.command == "run" and args.seconds is None:
        args.seconds = 1.0 if args.smoke else metrics.RUN_SECONDS
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

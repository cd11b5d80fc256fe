"""hellycert benchmark: select/check latency and batch throughput.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-d4 --seed 1 --seconds 50 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` prints the per-layer
metrics of a traced run instead. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
The program is imported from `src/` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
ADDRESS_SPACE_CAP = 1536 * 1024 * 1024  # bytes, this process and its workers
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("certify-d4", "certify-d2-wide", "batch-oracle")


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process; workers inherit the environment.
    Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def git_sha() -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_config(np) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        info = {}
    info["threads"] = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (SRC / "hellycert" / "__init__.py").is_file():
        print(f"perfbench: no hellycert package under {SRC}", file=sys.stderr)
        return 2
    cap_address_space()
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy as np

    import hellycert

    import_s = perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz" if args.trace else None
    result, report = workloads.run(wl, args.seed, args.seconds, bool(args.trace), spans_path, import_s)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):
            metric["value"] = None  # no passing op to measure; strict JSON has no NaN

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']!s:>20} {metric['unit']}")
    print(
        f"  fail_ratio {report['fail_ratio']:.4g} "
        f"({result['failed']} of {result['attempted']} ops); "
        f"{report['samples']} timed samples"
    )
    for op, label, reason in report["failures"][:20]:
        print(f"  FAILED op {op} [{label}]: {reason}")
    for name, share in report.get("shares", [])[:12]:
        print(f"  self-time share {name:36s} {share:7.2%}")
    meta = {
        "git_sha": git_sha(),
        "workload": wl.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "jobs": report["jobs"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hellycert": hellycert.__version__,
        "blas": blas_config(np),
        "import_s": import_s,
        "fail_ratio": report["fail_ratio"],
        "cert_digest_sha256": report["digest"],
        "digest_items": report["digest_items"],
        "spans": report.get("spans"),
        "spans_file": report.get("spans_file"),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

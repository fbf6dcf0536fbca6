"""rootsearch benchmark.

Run from the root of a rootsearch checkout:

    python3 perfbench/run.py --workload query-vocab --seed 1 --seconds 45 --trace 0

The program is taken from ``src/`` of the checkout and driven from outside:
fresh ``python -m rootsearch.cli`` processes plus calls into the public
functions of its modules. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. Every metric is printed
as ``name value unit``, then one line of run metadata, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
End-to-end times are scaled to a reference host speed (``speed.py``); the
metadata holds their wall-clock values too.
Scratch files go under ``.perfbench/`` in the checkout and are removed at
the end, except the traced run's spans (``.perfbench/trace-<workload>.jsonl``)
and the query-vocab corpus (``.perfbench/corpus-<key>``), which is kept for
later runs of the same program version.

Exit codes: 0 when every output checked out, 1 when an output was wrong or
an op failed (the result line is still printed), 2 when the checkout holds
no rootsearch sources or set-up failed (nothing is printed on stdout).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-eval", "query-vocab")


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines(src: Path) -> int:
    return sum(
        len(path.read_text("utf-8").splitlines()) for path in sorted(src.rglob("*.py"))
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rootsearch" / "__init__.py").is_file():
        print(f"perfbench: no rootsearch sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rootsearch

    if Path(rootsearch.__file__).resolve().parent != src / "rootsearch":
        print(f"perfbench: imported rootsearch from {rootsearch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    try:
        run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except Exception:
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete", file=sys.stderr)
        return 2

    failed = len(run.failures)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "src_lines": source_lines(src),
        "failed_ratio": failed / run.attempted,
        "failure_examples": run.failures[:3],
        **run.meta,
    }
    for name, metric in run.metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"meta": meta}, ensure_ascii=False))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": run.metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

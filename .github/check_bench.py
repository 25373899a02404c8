"""Check the output of ``perfbench/run.py --workload all`` and write its
job-summary table.

    python3 perfbench/run.py --workload all --seed 1 --seconds 5 | tee bench.log
    python3 .github/check_bench.py bench.log
    python3 .github/check_bench.py traced.log --per-layer    # a --trace 1 run

run.py exits 0 even when a probe or reference check fails, so this reads the
last JSON line of every workload instead. It exits 1 unless there are three
results, each ``correct`` with ``failed`` 0, and with ``--per-layer`` unless
each holds every per-layer metric BENCHMARK.json names. The table, of the
end-to-end metrics or with ``--per-layer`` of the backward, conv and tape
figures, is for reading only; it is appended to $GITHUB_STEP_SUMMARY when
that is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_SHOWN = ("autodiff.backward.self_s", "ops.conv2d.self_s", "autodiff.tape_mb")


def read_results(path: str) -> list[tuple[str, dict]]:
    """(workload name, JSON result) for every JSON line of a run.py log."""
    rows, name = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("workload "):
                name = line.split()[1]
            elif line.startswith("{"):
                rows.append((name, json.loads(line)))
    return rows


def table(rows, metrics, label: str) -> str:
    lines = ["| " + " | ".join([label] + [f"{m['name']} ({m['unit']})" for m in metrics]) + " |",
             "|---" * (len(metrics) + 1) + "|"]
    for name, result in rows:
        got = result.get("metrics", {})
        cells = [f"{got.get(m['name'], {}).get('value', float('nan')):.4g}" for m in metrics]
        lines.append("| " + " | ".join([str(name)] + cells) + " |")
    return "\n".join(lines) + "\n"


def problems(rows, required) -> list[str]:
    results = [result for _, result in rows]
    found = []
    if len(results) != 3:
        found.append(f"{len(results)} results, expected 3")
    bad = [r for r in results if not r.get("correct") or r.get("failed") != 0]
    if bad:
        found.append(f"failed checks in {bad}")
    missing = sorted({n for r in results for n in required if n not in r.get("metrics", {})})
    if missing:
        found.append(f"missing metrics {missing}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("log", help="stdout of perfbench/run.py --workload all")
    parser.add_argument("--per-layer", action="store_true",
                        help="the log is of a --trace 1 run: require every per-layer metric")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.per_layer:
        shown = [m for m in bench["per_layer"] if m["name"] in TRACED_SHOWN]
        required = [m["name"] for m in bench["per_layer"]]
        label, what = "traced workload", "traced benchmark checks"
    else:
        shown, required, label, what = bench["end_to_end"], [], "workload", "benchmark checks"

    rows = read_results(args.log)
    with open(os.environ.get("GITHUB_STEP_SUMMARY", os.devnull), "a", encoding="utf-8") as fh:
        fh.write(table(rows, shown, label))
    found = problems(rows, required)
    if found:
        print(f"{what} failed: " + "; ".join(found), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

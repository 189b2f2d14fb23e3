"""Run every workload and print one table: the baseline command.

    python3 perfbench/report.py [--seed 0] [--out .bench_out/report.json]

Each workload runs twice untraced (end-to-end metrics; the two runs decide
whether the tail percentile repeats within a tenth) and once traced
(per-layer metrics), each run in its own process so peak RSS is the
workload's own.  The summary, with the environment, goes to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

# the span each workload is expected to spend most of its self time in
EXPECTED_TOP = {
    "shoot-su4": "dynamics.integrate",
    "two-level": "dynamics.integrate",
    "cli-solve": "cli.main",
}
UNTRACED_RUNS = 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def tail_verdict(runs: list) -> dict:
    """Report the tail only when every run reaches one percentile and the
    runs agree on it within a tenth; the percentile is the lowest reached."""
    tails = [r["op_tail"] for r in runs]
    if any("ms" not in t for t in tails):
        return {"reported": False, "why": next(t["left_out"] for t in tails if "ms" not in t)}
    p = min(t["percentile"] for t in tails)
    values = []
    for r in runs:
        times = [t for ts in r["op_ms"].values() for t in ts]
        values.append(statistics.quantiles(times, n=100, method="inclusive")[p - 1])
    if max(values) > 1.1 * min(values):
        return {"reported": False, "why": f"p{p} did not repeat within a tenth: {values}"}
    return {"reported": True, "percentile": p, "n": [t["n"] for t in tails],
            "ms": statistics.median(values)}


def inclusive_share(record: dict, span_name: str) -> float:
    """Share of the traced op wall time inside spans called `span_name`."""
    inside = sum(end - start for name, start, end, _, _ in record["spans"] if name == span_name)
    return inside / sum(record["traced_op_s"])


def cli_self_share(record: dict) -> dict:
    """Per op label: share of traced wall time in the CLI's own code
    (parsing, file load and JSON emission, outside every child span)."""
    wall: dict = {}
    for label, t in zip(record["traced_labels"], record["traced_op_s"]):
        wall[label] = wall.get(label, 0.0) + 1e3 * t
    return {label: row.get("cli.main", 0.0) / wall[label]
            for label, row in record["self_ms_by_label"].items() if "cli.main" in row}


def top_span(record: dict) -> tuple:
    totals: dict = {}
    for row in record["self_ms_by_label"].values():
        for name, ms in row.items():
            totals[name] = totals.get(name, 0.0) + ms
    name = max(totals, key=totals.get)
    return name, totals[name] / sum(totals.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "report.json"))
    args = parser.parse_args()

    summary = {"seed": args.seed, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        plain = [run_once(workload, args.seed, 0) for _ in range(UNTRACED_RUNS)]
        traced = run_once(workload, args.seed, 1)
        summary["environment"] = plain[0]["environment"]
        summary["seconds"] = plain[0]["seconds"]
        end_to_end = {
            name: {"unit": unit, "n": plain[0]["samples"][name],
                   "runs": [r["metrics"][name] for r in plain]}
            for name, unit in END_TO_END.items()
        }
        top, top_share = top_span(traced)
        entry = {
            "why": plain[0]["why"],
            "end_to_end": end_to_end,
            "op_tail_ms": tail_verdict(plain),
            "fail_ratio": {"failed": sum(r["failed"] for r in plain + [traced]),
                           "attempted": sum(r["attempted"] for r in plain + [traced])},
            "correct": all(r["correct"] for r in plain + [traced]),
            "per_layer": {name: {"unit": PER_LAYER[name], "n": traced["samples"][name],
                                 "value": traced["metrics"][name]} for name in PER_LAYER},
            "op_ms_median": {label: statistics.median(ts)
                             for label, ts in plain[0]["op_ms"].items()},
            "largest_self_span": {"name": top, "share": top_share,
                                  "expected": EXPECTED_TOP.get(workload)},
            "integrate_inclusive_share": inclusive_share(traced, "dynamics.integrate"),
            "cli_self_share_by_label": cli_self_share(traced),
        }
        summary["workloads"][workload] = entry
        print_workload(workload, entry)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"environment {json.dumps(summary['environment'])}")
    print(f"summary written to {out}")
    return 0


def print_workload(workload: str, entry: dict) -> None:
    print(f"== {workload}: {entry['why']}")
    for name, m in entry["end_to_end"].items():
        runs = " ".join(f"{v:.6g}" for v in m["runs"])
        print(f"  {name:34s} {runs:>24s} {m['unit']:6s} n={m['n']} per run")
    t = entry["op_tail_ms"]
    print("  op_tail_ms".ljust(37) + (f"{t['ms']:24.6g} ms     p{t['percentile']} n={t['n']}"
                                      if t["reported"] else f"left out: {t['why']}"))
    f = entry["fail_ratio"]
    print(f"  {'fail_ratio':34s} {f['failed'] / f['attempted']:24.6g} ratio  "
          f"n={f['attempted']} ({f['failed']} failed); correct: {entry['correct']}")
    for name, m in entry["per_layer"].items():
        if m["value"]:
            print(f"    {name:32s} {m['value']:24.6g} {m['unit']:6s} n={m['n']}")
    top = entry["largest_self_span"]
    expected = f", expected {top['expected']}" if top["expected"] else ""
    print(f"  largest self-time span {top['name']} ({100 * top['share']:.1f}%){expected}")
    print(f"  integrate share (inclusive) {100 * entry['integrate_inclusive_share']:.1f}%")
    for label, share in entry["cli_self_share_by_label"].items():
        print(f"  cli self-time share of {label}: {100 * share:.1f}%")


if __name__ == "__main__":
    sys.exit(main())

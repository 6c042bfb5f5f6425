"""One command for the benchmark: five workloads, end-to-end and per-layer.

    PYTHONPATH=src python benchmarks/harness/run.py --seed 0 [--workload NAME] [--trace] [--compare]

Every workload runs in a fresh subprocess (so its peak RSS and cold set-up
are its own) and prints its end-to-end metrics with unit, value, quartiles
and sample count.  ``--trace`` runs the traced variant instead: per-layer
busy time, self time and counts, the tracing overhead, a host triad
bandwidth yardstick, and one span file per workload under
``benchmarks/harness/out/``.  With one ``--workload`` the last output line
is a JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full
untraced run (every workload, default scale) is appended to
``BENCH_trajectory.jsonl``; ``--compare`` first prints each metric's change
against the last entry from the same host.  ``--smoke`` shrinks every
workload for a quick self-test.  The exit code is non-zero if any
operation failed its check or any workload did not finish.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at
the repository root; ``README.md`` beside this file defines each one.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
TRAJECTORY = HERE / "BENCH_trajectory.jsonl"

#: Triad array size standing for DRAM, MiB per array (three arrays).  The
#: measured rate stops falling by 64-128 MiB per array on the reference
#: host; larger arrays would take memory other processes on a shared
#: host need.
DRAM_ARRAY_MIB = 128
SMOKE_DRAM_ARRAY_MIB = 16

#: A workload subprocess that runs longer than this is killed and failed.
CHILD_TIMEOUT_S = 170

#: Workload-specific end-to-end numbers beside the ``BENCHMARK.json`` set
#: (which every workload must report): printed, kept in the trajectory and
#: compared, with these bounds.
EXTRAS = {
    "error_rate": {"unit": "fraction", "better": "lower", "bound": 0.0},
    "latency_p90_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "speedup_vs_serial": {"unit": "x", "better": "higher", "bound": 0.25},
}


def run_child(args) -> None:
    """Measure one workload in this process; print its result as JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if not args.trace:
        result = workloads.run_workload(args.workload, args.seed, args.seconds, smoke=args.smoke)
    else:
        result = workloads.run_traced(args.workload, args.seed, args.seconds, smoke=args.smoke)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.pop("tracer").dump(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))


def run_workload(name: str, args):
    """The workload's result from a fresh subprocess, or ``None`` on failure."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
    ] + (["--smoke"] if args.smoke else [])
    # A fixed hash seed makes set and dict iteration, and with them the
    # allocation history behind peak_rss_mb, repeat from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, env=env
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    if args.trace:
        add_host_bandwidth(result, args.smoke)
    return result


def add_host_bandwidth(result: dict, smoke: bool) -> None:
    """Run the triad yardstick in its own process; derive the roofline share."""
    dram = SMOKE_DRAM_ARRAY_MIB if smoke else DRAM_ARRAY_MIB
    cmd = [
        sys.executable, str(HERE / "hostbw.py"),
        "--ws-bytes", str(result["working_set_bytes"]), "--dram-mib", str(dram),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    bw = json.loads(out.stdout.strip().splitlines()[-1])
    m = result["metrics"]
    m["host.triad_gbps_ws"] = {"value": bw["ws"]["gbps"]}
    m["host.triad_gbps_dram"] = {"value": bw["dram"]["gbps"]}
    m["sweep.roofline_frac"] = {"value": m["sweep.gbps_computed"]["value"] / bw["ws"]["gbps"]}
    result["triad_array_mib"] = {"ws": bw["ws"]["array_mib"], "dram": bw["dram"]["array_mib"]}


def metric_specs(bench: dict) -> dict:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    specs.update(EXTRAS)
    return specs


def print_end_to_end(results: list, specs: dict) -> None:
    print(f"{'workload':<16} {'metric':<18} {'unit':<9} {'value':>11} {'q1':>11} {'q3':>11} {'n':>5}")
    for res in results:
        for name, m in {**res["metrics"], **res["extras"]}.items():
            print(
                f"{res['workload']:<16} {name:<18} {specs[name]['unit']:<9} "
                f"{m['value']:>11.5g} {m['q1']:>11.5g} {m['q3']:>11.5g} {m['n']:>5}"
            )
        print(
            f"{res['workload']:<16} ({res['failed']} of {res['attempted']} operations failed, "
            f"{res['wall_s']:.1f} s wall)"
        )


def print_traced(results: list, specs: dict) -> None:
    for res in results:
        n = len(res["traced_solve_s"])
        print(f"\n{res['workload']}: {n} traced operation(s), spans in {res['spans_file']}")
        cover = res["self_sum_s"] / sum(res["traced_solve_s"])
        print(f"  span self times sum to {cover:.4f} x the traced operations' wall-clock")
        print(f"  {'layer':<20} {'calls/op':>10} {'busy s/op':>11} {'self s/op':>11}")
        layers = sorted(res["layers"].items(), key=lambda kv: -kv[1]["self"])
        for name, row in layers:
            print(
                f"  {name:<20} {row['count'] / n:>10.1f} {row['busy'] / n:>11.5f} "
                f"{row['self'] / n:>11.5f}"
            )
        mib = res["triad_array_mib"]
        print(f"  triad arrays: {mib['ws']:.2f} MiB (working set), {mib['dram']:.0f} MiB (DRAM)")
        for name, m in res["metrics"].items():
            print(f"  {name:<26} {m['value']:>12.5g} {specs[name]['unit']}")
        print(f"  ({res['failed']} of {res['attempted']} operations failed, {res['wall_s']:.1f} s wall)")


def git_state():
    """``(sha, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def compare(entry: dict, previous: dict, specs: dict) -> None:
    """Print each metric's change against *previous*; flag those beyond bound."""
    print(f"\nagainst {previous['date']} (sha {previous['sha']}, seed {previous['seed']}):")
    for wl, metrics in entry["workloads"].items():
        for name, m in metrics.items():
            old = previous["workloads"].get(wl, {}).get(name)
            if old is None:
                continue
            spec = specs[name]
            change = m["value"] - old["value"]
            rel = change / old["value"] if old["value"] else change
            worse = rel if spec["better"] == "lower" else -rel
            flag = "  OUTSIDE BOUND" if worse > spec["bound"] else ""
            print(f"  {wl:<16} {name:<18} {old['value']:>11.5g} -> {m['value']:>11.5g} ({rel:+.1%}){flag}")


def record(results: list, args, specs: dict) -> None:
    sha, dirty = git_state()
    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "sha": sha,
        "dirty": dirty,
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {
            r["workload"]: {
                name: dict(m, unit=specs[name]["unit"])
                for name, m in {**r["metrics"], **r["extras"]}.items()
            }
            for r in results
        },
    }
    if args.compare:
        history = []
        if TRAJECTORY.exists():
            history = [json.loads(line) for line in TRAJECTORY.read_text().splitlines() if line]
        same = [e for e in history if e["host"] == entry["host"]]
        if same:
            compare(entry, same[-1], specs)
        else:
            print("\nno earlier trajectory entry from this host to compare against")
    with open(TRAJECTORY, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    print(f"\nappended to {TRAJECTORY.relative_to(ROOT)}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run only this workload")
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument(
        "--seconds", type=float, default=None,
        help=f"measuring time per workload (default {bench['run_seconds']})",
    )
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced per-layer run instead of the end-to-end one",
    )
    ap.add_argument("--compare", action="store_true", help="compare with the last trajectory entry")
    ap.add_argument("--smoke", action="store_true", help="shrunken workloads for the self-test")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else bench["run_seconds"]
    if args.child:
        run_child(args)
        return 0

    specs = metric_specs(bench)
    selected = [args.workload] if args.workload else names
    results = [run_workload(name, args) for name in selected]
    done = [r for r in results if r is not None]
    if done and args.trace:
        print_traced(done, specs)
    elif done:
        print_end_to_end(done, specs)
    OUT.mkdir(exist_ok=True)
    (OUT / "last-run.json").write_text(json.dumps(done, indent=1) + "\n")
    if len(done) < len(results):
        return 1
    failed = sum(r["failed"] for r in done)
    if not args.workload and not args.trace and not args.smoke:
        record(done, args, specs)
    if args.workload:
        kind = "per_layer" if args.trace else "end_to_end"
        res = done[0]
        metrics = {
            m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in bench[kind]
        }
        print(
            json.dumps(
                {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the quanto CDS engine, end to end and per layer.

    python3 perfbench/run.py --workload fx-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One op is one quote priced through
``quantocds.cli.run`` on a config generated from ``--seed`` (see
``workloads.py``), with one client in a closed loop and one worker per
process (``solver.workers = 1``, one BLAS thread).

``--trace 0`` starts three worker processes one after another.  Each
imports the package and runs the untimed reference quote; ``setup_s``
is the median time from spawn to the end of that warm-up.  The third
then runs ops for ``--seconds`` and gives the end-to-end metrics.
``--trace 1`` starts one worker that alternates traced and untraced
ops and gives the per-layer metrics, with the tracing overhead.

Every op's outputs are checked: a failed op is a raised error, a
nonzero return, a non-finite or non-positive spread, or, for the
reference seed's ops, a spread off ``reference.json``.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name and unit, the environment fingerprint and the notes.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3            # setup_s is the median over this many process starts
TAIL_BEYOND = 10      # op_tail_s: highest percentile with this many samples above
UNIQUE_WINDOW = 8     # domestic_unique_frac over the first domestic solves traced
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "spreads_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.load_config_s": "s", "cli.self_s": "s",
    "pricing.pricer_init_s": "s", "pricing.stacked_nnz": "count",
    "pricing.spread_s": "s", "pricing.readout_s": "s", "pricing.readout_calls": "count",
    "pricing.domestic_spread_share": "%", "pricing.domestic_spread_calls": "count",
    "pricing.domestic_unique_frac": "ratio",
    "rbffd.assemble_L_s": "s", "rbffd.assemble_L_calls": "count", "rbffd.L_nnz": "count",
    "pde.rk4_sweep_s": "s", "pde.rk4_sweep_calls": "count", "pde.rk4_steps": "count",
    "pde.spmv": "count", "pde.spmv_flop": "flop", "pde.spmv_bytes": "B", "pde.step_us": "us",
    "grid.interpolation_matrix_s": "s", "grid.interpolation_matrix_calls": "count",
    "oracles.cn_domestic_spread_share": "%", "oracles.cn_domestic_spread_calls": "count",
    "oracles.mc_spread_share": "%", "oracles.mc_paths": "count",
    "oracles.mc_path_steps": "count", "oracles.mc_path_steps_per_s": "1/s",
    "oracles.mc_normals_bytes_per_block": "B", "oracles.mc_se_bps": "bps",
    "oracles.mc_pde_gap_se": "SE", "trace.overhead_frac": "ratio",
}
COMPUTED = ("pde.spmv", "pde.spmv_flop", "pde.spmv_bytes",
            "oracles.mc_path_steps", "oracles.mc_normals_bytes_per_block")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the maximum (p100) when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


def measured(worker: dict) -> list[dict]:
    return [op for op in worker["ops"] if op["index"] > 0]


def end_to_end(workers: list[dict]) -> tuple[dict, list[str]]:
    main = workers[-1]
    ops = measured(main)
    times = [op["seconds"] for op in ops if op["error"] is None]
    if not times:
        raise RuntimeError("no measured op succeeded")
    tail_s, pct = tail(times)
    beyond = TAIL_BEYOND if len(times) > TAIL_BEYOND else 0
    values = {
        "setup_s": median(w["setup_s"] for w in workers),
        "op_p50_s": median(times),
        "op_tail_s": tail_s,
        "spreads_per_s": len(times) / main["wall_s"],
        "peak_rss_mb": main["rss_mb"],
    }
    notes = [f"op_tail_s is p{pct:.1f} of {len(times)} ops "
             f"({beyond} beyond it)",
             f"setup_s is the median of {len(workers)} process starts"]
    se = [op["outputs"]["mc_se_bps"] for op in ops
          if op["error"] is None and "mc_se_bps" in op["outputs"]]
    if se:
        notes.append(f"mc_time_to_1bp_s = {values['op_p50_s'] * median(se) ** 2:.6g} s "
                     f"(op_p50_s x median MC SE {median(se):.4g} bps, squared)")
    else:
        notes.append("mc_time_to_1bp_s: no Monte Carlo in this workload")
    return values, notes


def _op_layer_values(op: dict) -> dict:
    layers = op["layers"]

    def get(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    def attr_sum(name, key):
        return sum(a.get(key) or 0 for a in layers.get(name, {}).get("attrs", []))

    def attr_first(name, key):
        vals = [a[key] for a in layers.get(name, {}).get("attrs", [])
                if a.get(key) is not None]
        return vals[0] if vals else 0

    def share(name):
        return 100.0 * get(name, "total_s") / op["seconds"]

    steps = attr_sum("pde.rk4_sweep", "steps")
    mc_s = get("oracles.mc_spread")
    return {
        "cli.load_config_s": get("cli.load_config"),
        "cli.self_s": get("cli.run"),
        "pricing.pricer_init_s": get("pricing.pricer_init"),
        "pricing.stacked_nnz": attr_first("pricing.pricer_init", "stacked_nnz"),
        "pricing.spread_s": get("pricing.spread"),
        "pricing.readout_s": get("pricing.readout"),
        "pricing.readout_calls": get("pricing.readout", "calls"),
        "pricing.domestic_spread_share": share("pricing.domestic_spread"),
        "pricing.domestic_spread_calls": get("pricing.domestic_spread", "calls"),
        "rbffd.assemble_L_s": get("rbffd.assemble_L"),
        "rbffd.assemble_L_calls": get("rbffd.assemble_L", "calls"),
        "rbffd.L_nnz": attr_first("rbffd.assemble_L", "L_nnz"),
        "pde.rk4_sweep_s": get("pde.rk4_sweep"),
        "pde.rk4_sweep_calls": get("pde.rk4_sweep", "calls"),
        "pde.rk4_steps": steps,
        "pde.spmv": attr_sum("pde.rk4_sweep", "spmv"),
        "pde.spmv_flop": attr_sum("pde.rk4_sweep", "spmv_flop"),
        "pde.spmv_bytes": attr_sum("pde.rk4_sweep", "spmv_bytes"),
        "pde.step_us": 1e6 * get("pde.rk4_sweep") / steps if steps else 0.0,
        "grid.interpolation_matrix_s": get("grid.interpolation_matrix"),
        "grid.interpolation_matrix_calls": get("grid.interpolation_matrix", "calls"),
        "oracles.cn_domestic_spread_share": share("oracles.cn_domestic_spread"),
        "oracles.cn_domestic_spread_calls": get("oracles.cn_domestic_spread", "calls"),
        "oracles.mc_spread_share": share("oracles.mc_spread"),
        "oracles.mc_paths": attr_sum("oracles.mc_spread", "paths"),
        "oracles.mc_path_steps": attr_sum("oracles.mc_spread", "path_steps"),
        "oracles.mc_path_steps_per_s":
            attr_sum("oracles.mc_spread", "path_steps") / mc_s if mc_s else 0.0,
        "oracles.mc_normals_bytes_per_block":
            attr_first("oracles.mc_spread", "normals_bytes_per_block"),
    }


def per_layer(worker: dict) -> tuple[dict, list[str]]:
    ok = [op for op in measured(worker) if op["error"] is None]
    traced = [op for op in ok if op["traced"]]
    untraced = [op["seconds"] for op in ok if not op["traced"]]
    if not traced:
        raise RuntimeError("no traced op succeeded")
    rows = [_op_layer_values(op) for op in traced]
    values = {name: median(r[name] for r in rows) for name in rows[0]}

    contracts = [a["contract"] for op in traced
                 for a in op["layers"].get("pricing.domestic_spread", {}).get("attrs", [])
                 if "contract" in a][:UNIQUE_WINDOW]
    values["pricing.domestic_unique_frac"] = (
        len(set(contracts)) / len(contracts) if contracts else 0.0)
    mc = [op["outputs"] for op in ok if "mc_se_bps" in op["outputs"]]
    values["oracles.mc_se_bps"] = median(o["mc_se_bps"] for o in mc) if mc else 0.0
    values["oracles.mc_pde_gap_se"] = (
        median((o["mc_bps"] - o["pde_bps"]) / o["mc_se_bps"] for o in mc) if mc else 0.0)
    values["trace.overhead_frac"] = (
        median(op["seconds"] for op in traced) / median(untraced) - 1.0
        if untraced else 0.0)

    names = sorted({n for op in traced for n in op["layers"]})
    notes = [f"per-layer values are medians over {len(traced)} traced ops "
             f"({len(untraced)} untraced ops alternate with them)",
             f"domestic_unique_frac over the first {len(contracts)} domestic 4D solves",
             "computed from nnz, N and the CSR layout, not measured: "
             + ", ".join(COMPUTED),
             "absent hooks: " + (", ".join(worker.get("absent", [])) or "none"),
             f"spans written to {worker.get('spans_file')}",
             f"{'span':28s} {'calls':>7s} {'self_s':>10s} {'total_s':>10s}  (median per op)"]
    for n in names:
        calls, self_s, total_s = (
            median(op["layers"].get(n, {}).get(k, 0) for op in traced)
            for k in ("calls", "self_s", "total_s"))
        notes.append(f"{n:28s} {calls:7g} {self_s:10.6f} {total_s:10.6f}")
    return values, notes


def spawn(args, measure: bool, result: Path, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if measure:
        cmd.append("--measure")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "quantocds" / "__init__.py").is_file():
        print(f"error: no quantocds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    n_workers = 1 if args.trace else SETUPS
    try:
        workers = [spawn(args, k == n_workers - 1, scratch / f"result-{k}.json", deadline)
                   for k in range(n_workers)]
        values, notes = (per_layer if args.trace else end_to_end)(
            workers[-1] if args.trace else workers)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    ops = [op for w in workers for op in w["ops"]]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in workers[-1]["fingerprint"].items()))
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:16.8g} {unit}")
    for line in notes:
        print(line)
    for op in ops:
        if op["error"]:
            print(f"failed op {op['index']}: {op['error']}")
    line = result_line(values, units, ops)
    print(f"failed_frac = {line['failed'] / line['attempted']:.4g} "
          f"({line['failed']} of {line['attempted']} ops, warm-ups included)")
    print(json.dumps(line))
    return 0


def result_line(values: dict, units: dict, ops: list[dict]) -> dict:
    failed = sum(op["error"] is not None for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


if __name__ == "__main__":
    sys.exit(main())

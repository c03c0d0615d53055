"""One benchmark worker process: import, warm up, run ops, report.

``run.py`` starts this script; it writes its result as JSON to
``--result``.  The warm-up op is the reference quote (index 0 of the
reference seed), checked against ``reference.json`` on every run.  With
``--measure`` the worker then runs ops in a closed loop for
``--seconds``; with ``--trace 1`` every other op runs with the hooks
installed, and the spans are written next to the result.

``python3 perfbench/worker.py --write-reference`` prices the reference
seed's ops 0..8 of every workload and rewrites ``reference.json``; run
it only when a change is meant to move the spreads.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import Hook, Tracer, op_layers
from workloads import REFERENCE_SEED, WORKLOADS, op_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_OPS = 9
RTOL = 1e-9


# -- observers: per-call counts derived from arguments and results ----------

def _csr_spmv_bytes(A) -> int:
    """Bytes one CSR SpMV reads and writes, each array touched once."""
    rows, cols = A.shape
    return (A.nnz * (A.data.itemsize + A.indices.itemsize)
            + (rows + 1) * A.indptr.itemsize + (cols + rows) * A.data.itemsize)


def _obs_pricer_init(a, _):
    pricer = a["self"]
    stacked = getattr(pricer, "_stacked", None)
    return {"grid_shape": list(pricer.grid.shape), "N": pricer.grid.size,
            "stacked_nnz": getattr(stacked, "nnz", None)}


def _obs_assemble_L(_, result):
    return {"L_nnz": getattr(result, "matrix", result).nnz}


def _obs_rk4_sweep(a, _):
    A, steps = a["A"], a["nsteps"]
    spmv = 4 * steps                       # one per RK4 stage
    return {"steps": steps, "spmv": spmv, "spmv_flop": 2 * A.nnz * spmv,
            "spmv_bytes": spmv * _csr_spmv_bytes(A)}


def _contract_key(*parts) -> str:
    def plain(x):
        if dataclasses.is_dataclass(x):
            return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
        return x.tolist() if hasattr(x, "tolist") else x
    blob = json.dumps([plain(x) for x in parts], sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _obs_domestic(a, _):
    from quantocds.pricing import domestic_params
    if a["method"] != "pde4d":
        return {"method": a["method"]}
    return {"method": "pde4d",
            "contract": _contract_key(domestic_params(a["p"]), a["schedule"],
                                      a["grid_cfg"], a["time_cfg"])}


def _obs_mc_spread(a, result):
    from quantocds.oracles import McConfig
    cfg, sched = a["cfg"] or McConfig(), a["schedule"]
    steps = sched.m * max(1, int(round(sched.coupon_interval / cfg.step)))
    return {"paths": cfg.n_paths, "path_steps": cfg.n_paths * steps,
            "normals_bytes_per_block": steps * min(cfg.block_size, cfg.n_paths) * 4 * 8,
            "se_bps": result.std_error_bps}


HOOKS = [
    Hook("quantocds.cli:quanto_basis", "pricing.quanto_basis"),
    Hook("quantocds.pricing:QuantoCdsPricer.__init__", "pricing.pricer_init",
         _obs_pricer_init),
    Hook("quantocds.pricing:QuantoCdsPricer.spread", "pricing.spread"),
    Hook("quantocds.pricing:QuantoCdsPricer.value_at_x0", "pricing.readout"),
    Hook("quantocds.pricing:QuantoCdsPricer.solve_w", "pricing.solve_w"),
    Hook("quantocds.pricing:QuantoCdsPricer.solve_g_family", "pricing.solve_g_family"),
    Hook("quantocds.cli:domestic_spread", "pricing.domestic_spread", _obs_domestic),
    Hook("quantocds.pricing:domestic_spread", "pricing.domestic_spread", _obs_domestic),
    Hook("quantocds.pricing:assemble_L", "rbffd.assemble_L", _obs_assemble_L),
    Hook("quantocds.pricing:rk4_sweep", "pde.rk4_sweep", _obs_rk4_sweep),
    Hook("quantocds.pricing:rk4_march", "pde.rk4_march"),
    Hook("quantocds.pricing:interpolation_matrix", "grid.interpolation_matrix"),
    Hook("quantocds.pde:interpolation_matrix", "grid.interpolation_matrix"),
    Hook("quantocds.oracles:cn_domestic_spread", "oracles.cn_domestic_spread"),
    Hook("quantocds.cli:mc_spread", "oracles.mc_spread", _obs_mc_spread),
]


# -- one op ----------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_outputs(task: str, out: Path) -> dict:
    """The spreads an op's artifacts report, in bps."""
    if task == "price":
        rep = json.loads((out / "spread_report.json").read_text())
        got = {"s_bps": rep["s_bps"], "s_d_bps": rep["s_d_bps"]}
        if rep.get("s_d_1d_bps") is not None:
            got["s_d_1d_bps"] = rep["s_d_1d_bps"]
        return got
    row = _csv_rows(out / "mc_check.csv")[-1]
    return {k: float(row[k]) for k in ("pde_bps", "mc_bps", "mc_se_bps")}


def check_outputs(got: dict, reference: dict | None) -> str | None:
    """Why the outputs are wrong, or None.  The PDE-vs-MC z-score is not
    checked: the two-step legs carry a known bias of about 2 SE."""
    for k, v in got.items():
        if not (math.isfinite(v) and v > 0.0):
            return f"{k} = {v!r} is not finite and positive"
    for k, want in (reference or {}).items():
        if k not in got or abs(got[k] - want) > RTOL * abs(want):
            return f"{k} = {got.get(k)!r} differs from reference {want!r}"
    return None


def run_op(cli, workload: str, seed: int, index: int, work: Path,
           reference: dict | None, tracer: Tracer | None) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg = op_config(workload, seed, index, str(out))
    cfg_path = work / "op.json"
    cfg_path.write_text(json.dumps(cfg))
    rec = {"index": index, "traced": tracer is not None, "seconds": None,
           "outputs": None, "error": None}
    if tracer is not None:
        tracer.op = index
        tracer.install(HOOKS)
    try:
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.run(cli.load_config(cfg_path))
        else:
            with tracer.span("cli.load_config"):
                run_cfg = cli.load_config(cfg_path)
            with tracer.span("cli.run"):
                code = cli.run(run_cfg)
        rec["seconds"] = time.perf_counter() - t0
        if code != 0:
            rec["error"] = f"cli.run returned {code}"
        else:
            rec["outputs"] = read_outputs(cfg["task"], out)
            rec["error"] = check_outputs(rec["outputs"], reference)
    except Exception as exc:      # a failed op is counted, the run goes on
        rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rec


def fingerprint(cli, workload: str, work: Path) -> dict:
    """Versions, cores, BLAS threads, and the reference quote's grid,
    N and operator sizes (from one traced pricer construction)."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None}
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        from quantocds.pricing import QuantoCdsPricer
        path = work / "fingerprint.json"
        path.write_text(json.dumps(op_config(workload, REFERENCE_SEED, 0, str(work))))
        cfg = cli.load_config(path)
        QuantoCdsPricer(cfg.model, cfg.grid)
    except Exception as exc:      # a refactored pricer must not fail the run
        env["operator"] = f"unavailable: {exc}"
    finally:
        tracer.uninstall()
    for s in tracer.spans:
        for k in ("grid_shape", "N", "stacked_nnz", "L_nnz"):
            if k in s.attrs:
                env.setdefault(k, s.attrs[k])
    return env


# -- process entry ---------------------------------------------------------

def write_reference() -> int:
    from quantocds import cli
    work = ROOT / ".perfbench" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    table = {}
    for wl in WORKLOADS:
        table[wl] = {}
        for i in range(REFERENCE_OPS):
            rec = run_op(cli, wl, REFERENCE_SEED, i, work, None, None)
            if rec["error"]:
                print(f"{wl} op {i}: {rec['error']}", file=sys.stderr)
                return 1
            table[wl][str(i)] = rec["outputs"]
            print(f"{wl} op {i}: {rec['outputs']}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--measure", action="store_true")
    ap.add_argument("--spawned-at", type=float, help="time.monotonic() at spawn")
    ap.add_argument("--result", type=Path)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.write_reference:
        return write_reference()
    from quantocds import cli

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    table = json.loads(REFERENCE.read_text()).get(args.workload, {})
    ops = [run_op(cli, args.workload, REFERENCE_SEED, 0, work, table.get("0"), None)]
    result = {"setup_s": time.monotonic() - args.spawned_at, "ops": ops}

    if args.measure:
        tracer = Tracer() if args.trace else None
        t0 = time.perf_counter()
        index = 1
        while time.perf_counter() - t0 < args.seconds:
            traced = tracer is not None and index % 2 == 1
            ref = table.get(str(index)) if args.seed == REFERENCE_SEED else None
            ops.append(run_op(cli, args.workload, args.seed, index, work, ref,
                              tracer if traced else None))
            index += 1
        result["wall_s"] = time.perf_counter() - t0
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["fingerprint"] = fingerprint(cli, args.workload, work)
        if tracer is not None:
            layers = op_layers(tracer.spans)
            for rec in ops:
                rec["layers"] = layers.get(rec["index"]) if rec["traced"] else None
            result["absent"] = tracer.absent
            spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(
                {"absent": tracer.absent,
                 "spans": [dataclasses.asdict(s) for s in tracer.spans]}))
            result["spans_file"] = str(spans_file.relative_to(ROOT))

    shutil.rmtree(work, ignore_errors=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Tasks: ``price`` (one spread report), ``sweep`` (one parameter swept
over a value list, with the proportional reference line for FX-jump
sweeps), ``benchmark`` (domestic-spread benchmark table with pass
flags), ``mc-check`` (PDE versus Monte Carlo comparison).

Every run is driven entirely by the config (no environment variables);
rerunning a task with the same config reproduces byte-identical CSV
bodies, with the timestamp confined to a comment line.  Exit codes:
0 ok, 1 solver failure, 2 config failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path

import numpy as np

from .grid import GridConfig
from .model import CORRELATION_ORDER, ModelParams, require_real
from .oracles import CN_Y_MIN, McConfig, cn_applies, credit_triangle, mc_spread
from .pricing import (CdsSchedule, QuantoCdsPricer, domestic_params, domestic_spread,
                      quanto_basis)

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "main"]

CSV_VERSION = "quantocds-csv-v1"

# correlation pair name -> (row, col), every pair i < j of CORRELATION_ORDER
_RHO_PAIRS = {f"{a}_{b}": (i, j) for (i, a), (j, b)
              in combinations(enumerate(CORRELATION_ORDER), 2)}

_SOLVER_KEYS = {"dt", "n_quad", "workers"}
_SCHEDULE_KEYS = {"T", "m"}
_SWEEP_KEYS = {"parameter", "values"}
_TOP_KEYS = {"model", "grid", "solver", "schedule", "task", "sweep", "mc", "output"}
_TASKS = ("price", "sweep", "benchmark", "mc-check")


class ConfigError(ValueError):
    """Config file malformed or inconsistent."""


@dataclass
class RunConfig:
    model: ModelParams
    grid: GridConfig
    schedule: CdsSchedule
    task: str
    sweep_parameter: str | None = None
    sweep_values: list[float] = field(default_factory=list)
    mc: McConfig = field(default_factory=McConfig)
    out_dir: Path = Path(".")


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _section(raw: dict, name: str, allowed: set, integers=()) -> dict:
    """A copy of config section ``name``: a JSON object (empty when
    absent) holding only keys in ``allowed``.  A float with no
    fractional part (10.0) under a key in ``integers`` becomes an int;
    every other value is left for its owner to check."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} block must be an object")
    _reject_unknown(section, allowed, name)
    return {k: int(v) if k in integers and isinstance(v, float) and v.is_integer() else v
            for k, v in section.items()}


@contextmanager
def _checked(name: str):
    """Report a TypeError or ValueError raised while building section
    ``name`` as a config error."""
    try:
        yield
    except (TypeError, ValueError) as exc:     # ParameterError is a ValueError
        raise ConfigError(f"{name} block invalid: {exc}") from exc


def _parse_rho(raw) -> np.ndarray:
    """A 4x4 matrix (a list of rows of numbers), or a mapping of pair
    names to correlations."""
    if not isinstance(raw, dict):
        if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
            raise ValueError(f"rho must be a list of rows or a mapping of pairs, got {raw!r}")
        for i, row in enumerate(raw):
            for j, val in enumerate(row):
                require_real(f"rho[{i}][{j}]", val)
        return np.asarray(raw, dtype=float)
    _reject_unknown(raw, _RHO_PAIRS, "model.rho")
    rho = np.eye(4)
    for name, val in raw.items():
        require_real(f"rho.{name}", val)
        i, j = _RHO_PAIRS[name]
        rho[i, j] = rho[j, i] = float(val)
    return rho


def _read_json(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def load_config(path: str | Path) -> RunConfig:
    return _parse(_read_json(path))


def _parse(raw: dict) -> RunConfig:
    _reject_unknown(raw, _TOP_KEYS, "config root")

    model = _section(raw, "model", _field_names(ModelParams))
    with _checked("model"):
        if "rho" in model:
            model["rho"] = _parse_rho(model["rho"])
        model = ModelParams(**model)

    grid = _section(raw, "grid", _field_names(GridConfig),
                    integers=("n_R", "n_rhat", "n_y", "n_z"))
    with _checked("grid"):
        grid = GridConfig(**grid)

    solver = _section(raw, "solver", _SOLVER_KEYS, integers=("n_quad", "workers"))
    # legacy keys: checked, otherwise ignored.  The march step is the
    # quadrature step T/(m*n_quad), and every task runs in this process
    dt, workers = solver.get("dt", 0.05), solver.get("workers", 1)
    with _checked("solver"):
        if isinstance(dt, bool) or not isinstance(dt, (int, float)) or not 0.0 < dt < np.inf:
            raise ValueError(f"dt must be a positive finite number, got {dt!r}")
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be an integer >= 1, got {workers!r}")

    schedule = _section(raw, "schedule", _SCHEDULE_KEYS, integers=("m",))
    with _checked("schedule"):
        schedule = CdsSchedule(**schedule, n_quad=solver.get("n_quad", 1))

    task = raw.get("task", "price")
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {_TASKS}")

    sweep = _section(raw, "sweep", _SWEEP_KEYS)
    sweep_param = sweep.get("parameter")
    with _checked("sweep"):
        if sweep_param is not None and not isinstance(sweep_param, str):
            raise ValueError("parameter must be a string")
        sweep_vals = sweep.get("values", [])
        if not isinstance(sweep_vals, list):
            raise ValueError(f"values must be a list, got {sweep_vals!r}")
        for i, v in enumerate(sweep_vals):
            require_real(f"values[{i}]", v)
        sweep_vals = [float(v) for v in sweep_vals]
        swept = [apply_sweep_value(model, sweep_param, v)
                 for v in sweep_vals] if sweep_param else []
    if task == "sweep" and not sweep_param:
        raise ConfigError("sweep task requires sweep.parameter")
    if task == "sweep" and not sweep_vals:
        raise ConfigError("sweep task requires a non-empty sweep.values list")
    if task != "mc-check":
        with _checked("sweep" if task == "sweep" else "model"):
            for p in swept if task == "sweep" else [model]:
                _require_domestic(p, task)

    # block_size changes the random stream, so the config does not expose it
    mc = _section(raw, "mc", _field_names(McConfig) - {"block_size"},
                  integers=("n_paths", "seed"))
    with _checked("mc"):
        mc = McConfig(**mc)

    out_dir = _section(raw, "output", {"dir"}).get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output.dir must be a string")

    return RunConfig(model=model, grid=grid, schedule=schedule,
                     task=task,
                     sweep_parameter=sweep_param, sweep_values=sweep_vals,
                     mc=mc, out_dir=Path(out_dir))


def _require_domestic(p: ModelParams, task: str) -> None:
    """Raise ValueError unless ``task`` can price the domestic contract
    of ``p``: ``domestic_params`` pins rhat0 at r_dom, which must
    therefore be >= 0, and the benchmark task prices the contract with
    the 1D oracle too.  (mc-check prices ``p`` alone.)"""
    if p.r_dom < 0.0:
        raise ValueError(f"r_dom = {p.r_dom} must be >= 0: the {task} task prices "
                         "the domestic contract, whose short rate is r_dom")
    if task == "benchmark" and not cn_applies(domestic_params(p)):
        raise ValueError(
            "the benchmark task prices the domestic contract with the 1D oracle, "
            f"which needs frozen recovery (kappa_R = {p.kappa_R}, sigma_R = "
            f"{p.sigma_R}; both must be 0) and y0 = {p.y0} on [{CN_Y_MIN}, 0.0]")


def apply_sweep_value(p: ModelParams, parameter: str, value: float) -> ModelParams:
    """Return params with one swept scalar field (or rho pair) replaced
    (ParameterError when the value leaves the domain)."""
    if parameter.startswith("rho."):
        pair = parameter[4:]
        if pair not in _RHO_PAIRS:
            raise ConfigError(f"unknown correlation pair {pair!r}")
        rho = p.rho.copy()
        i, j = _RHO_PAIRS[pair]
        rho[i, j] = rho[j, i] = value
        return p.with_(rho=rho)
    if parameter not in _field_names(ModelParams) - {"rho"}:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    return p.with_(**{parameter: value})


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, str):
        if any(c in x for c in ',"\n'):
            return '"' + x.replace('"', '""') + '"'
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.10g}"


def _fmt_rows(rows: list[list]) -> list[str]:
    return [",".join(_fmt(v) for v in row) for row in rows]


def _write_csv(path: Path, schema: str, columns: list[str], body: list[str]) -> None:
    """Header, column names and the formatted ``body`` lines."""
    lines = [f"# {CSV_VERSION} schema={schema} columns={','.join(columns)}",
             f"# generated={datetime.now(timezone.utc).isoformat()}",
             ",".join(columns), *body]
    path.write_text("\n".join(lines) + "\n")


# one leg row as _fmt renders it: an int, then five floats to 10 digits
_LEG_ROW = "%d" + ",%.10g" * 5


def _task_price(cfg: RunConfig) -> None:
    report = quanto_basis(cfg.model, cfg.schedule, cfg.grid)
    out = cfg.out_dir
    (out / "spread_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    i = np.arange(1, cfg.schedule.m + 1)
    legs = report.legs
    columns = zip(i.tolist(), (i * cfg.schedule.coupon_interval).tolist(),
                  legs.A.tolist(), legs.B.tolist(), legs.C.tolist(), legs.D.tolist())
    _write_csv(out / "leg_terms.csv", "legterms",
               ["i", "t_i", "A_i", "B_i", "C_i", "D_i"],
               [_LEG_ROW % row for row in columns])
    print(f"s = {report.s_bps:.4f} bps, s_d = {report.s_d_bps:.4f} bps, "
          f"basis = {report.basis_bps:.4f} bps")


def _task_sweep(cfg: RunConfig) -> None:
    rows = []
    for value in cfg.sweep_values:
        p = apply_sweep_value(cfg.model, cfg.sweep_parameter, value)
        s, _ = QuantoCdsPricer(p, cfg.grid).spread(cfg.schedule)
        s_d = domestic_spread(p, cfg.schedule, method="pde4d", grid_cfg=cfg.grid)
        ref = 1e4 * ((1.0 + value) * s_d) if cfg.sweep_parameter == "gamma_z" else ""
        rows.append([value, 1e4 * s, 1e4 * s_d, 1e4 * (s - s_d), ref])
    name = cfg.sweep_parameter.replace(".", "_")
    _write_csv(cfg.out_dir / f"sweep_{name}.csv", "sweep",
               ["value", "s_bps", "s_d_bps", "basis_bps", "reference_bps"],
               _fmt_rows(rows))
    print(f"sweep over {cfg.sweep_parameter}: {len(rows)} rows written")


def _task_benchmark(cfg: RunConfig) -> None:
    """Domestic-spread benchmarks: stochastic and frozen log-hazard,
    each by the 4D engine and the 1D reduction, against the published
    values and the constant-hazard closed form."""
    p = cfg.model
    p_flat = p.with_(kappa_y=0.0, sigma_y=0.0)
    runs = {
        "sd_4d": 1e4 * domestic_spread(p, cfg.schedule, "pde4d", cfg.grid),
        "sd_1d": 1e4 * domestic_spread(p, cfg.schedule, "cn1d"),
        "sd_4d_flat": 1e4 * domestic_spread(p_flat, cfg.schedule, "pde4d",
                                            cfg.grid),
        "sd_1d_flat": 1e4 * domestic_spread(p_flat, cfg.schedule, "cn1d"),
        "triangle": 1e4 * credit_triangle(p.lambda0, p.R0),
    }
    targets = {"sd_4d": (102.68, 1.5), "sd_1d": (102.8, 1.0),
               "sd_4d_flat": (91.73, 1.5), "sd_1d_flat": (94.5, 1.0),
               "triangle": (92.2, 0.5)}
    rows = []
    for name, got in runs.items():
        tgt, tol = targets[name]
        rows.append([name, got, tgt, tol, abs(got - tgt) <= tol])
    _write_csv(cfg.out_dir / "benchmark.csv", "benchmark",
               ["case", "value_bps", "target_bps", "tol_bps", "pass"], _fmt_rows(rows))
    for r in rows:
        print(f"{r[0]:12s} {r[1]:9.3f} bps (target {r[2]} +- {r[3]}) "
              f"{'PASS' if r[4] else 'FAIL'}")


def _task_mc_check(cfg: RunConfig) -> None:
    pricer = QuantoCdsPricer(cfg.model, cfg.grid)
    s_pde, _ = pricer.spread(cfg.schedule)
    est = mc_spread(cfg.model, cfg.schedule, cfg.mc)
    gap = abs(s_pde - est.mean)
    # a zero standard error (no sampled path defaults) leaves only the
    # gap: any gap at all is infinitely many standard errors
    z = gap / est.std_error if est.std_error > 0.0 else (np.inf if gap > 0.0 else 0.0)
    ok = z <= 3.0
    _write_csv(cfg.out_dir / "mc_check.csv", "mccheck",
               ["pde_bps", "mc_bps", "mc_se_bps", "z_score", "pass"],
               _fmt_rows([[1e4 * s_pde, est.mean_bps, est.std_error_bps, z, ok]]))
    print(f"PDE {1e4 * s_pde:.3f} bps vs MC {est.mean_bps:.3f} "
          f"+- {est.std_error_bps:.3f} bps  (z = {z:.2f}) "
          f"{'PASS' if ok else 'FAIL'}")


def run(cfg: RunConfig) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    task = {"price": _task_price, "sweep": _task_sweep,
            "benchmark": _task_benchmark, "mc-check": _task_mc_check}[cfg.task]
    task(cfg)
    return 0


def _override(raw: dict, section: str, key: str, value) -> None:
    """Write a flag's value over ``raw[section][key]``.  A section that
    is not an object is left as it is, for the parser to reject."""
    if value is not None and isinstance(raw.setdefault(section, {}), dict):
        raw[section][key] = value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="quantocds",
        description="Quanto CDS pricing engine (four-factor reduced-form model)")
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--task", choices=_TASKS, help="replaces the config's task")
    ap.add_argument("--out", help="replaces output.dir")
    ap.add_argument("--seed", type=int, help="replaces mc.seed")
    args = ap.parse_args(argv)

    try:
        # each flag replaces its key before the one parser checks it
        raw = _read_json(args.config)
        if args.task is not None:
            raw["task"] = args.task
        _override(raw, "output", "dir", args.out)
        _override(raw, "mc", "seed", args.seed)
        cfg = _parse(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        return run(cfg)
    except Exception as exc:   # solver failures surface as exit 1
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

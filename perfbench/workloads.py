"""Seeded inputs of the benchmark workloads.

Every op is one quote priced through ``quantocds.cli.run`` on a config
built here.  ``op_config(workload, seed, index)`` depends on nothing
else, so the same seed gives the same inputs, and the program sees only
the generated config.  Index 0 of the reference seed is the warm-up op
each worker runs before timing; measured ops use indices 1, 2, ...

Why each workload (also recorded in BENCHMARK.json):

- ``fx-sweep``: ``price`` on the default [10]^4 grid, frozen recovery,
  one ``gamma_z`` in [-0.9, 0] per op.  The stacked operator fits in
  per-core L2, so assembly and per-step overhead weigh heavily.  Every
  op shares one reduced domestic contract, because ``domestic_params``
  zeroes the jumps, and frozen recovery makes the 1D Crank-Nicolson
  oracle run.
- ``refined-grid``: ``price`` on [16]^4 with stochastic, correlated
  recovery drawn around sigma_R=0.3, kappa_R=0.5, rho_Rz=0.8.  The
  stacked operator leaves L2, so the RK4 SpMV sweep dominates, and no
  two ops share a foreign or a domestic contract.  The ranges keep
  kappa_R*theta_R >= sigma_R^2/2, so every op has the same boundary
  regime and therefore the same operator sparsity.
- ``mc-check``: ``mc-check`` at the acceptance settings (1e5 paths,
  step 1/48, blocks of 25k) on a seeded scenario with a seeded MC seed;
  Monte Carlo does most of the work.
"""
from __future__ import annotations

import random

WORKLOADS = ("fx-sweep", "refined-grid", "mc-check")
REFERENCE_SEED = 0

_BASE = {
    "solver": {"dt": 0.05, "n_quad": 1, "workers": 1},
    "schedule": {"T": 5.0, "m": 120},
}


def op_config(workload: str, seed: int, index: int, out_dir: str) -> dict:
    """Full CLI config of op ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    cfg = {**_BASE, "output": {"dir": out_dir}}
    if workload == "fx-sweep":
        cfg.update(task="price", model={"gamma_z": rng.uniform(-0.9, 0.0)})
    elif workload == "refined-grid":
        n = 16
        cfg.update(task="price",
                   model={"sigma_R": rng.uniform(0.27, 0.30),
                          "kappa_R": rng.uniform(0.50, 0.55),
                          "rho": {"R_z": rng.uniform(0.75, 0.85)}},
                   grid={"n_R": n, "n_rhat": n, "n_y": n, "n_z": n})
    elif workload == "mc-check":
        cfg.update(task="mc-check",
                   model={"gamma_z": rng.uniform(-0.5, 0.0),
                          "sigma_z": rng.uniform(0.08, 0.12)},
                   mc={"n_paths": 100_000, "step": 1.0 / 48.0,
                       "seed": rng.randrange(2**31)})
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return cfg

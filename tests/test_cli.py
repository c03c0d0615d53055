import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantocds
import quantocds.cli as cli
from quantocds.cli import (ConfigError, _fmt, apply_sweep_value, load_config, main)
from quantocds.grid import GridConfig
from quantocds.model import ModelParams, ParameterError
from quantocds.oracles import McConfig
from quantocds.pricing import (CdsSchedule, LegTerms, QuantoCdsPricer, SpreadReport,
                               _solve_domestic)


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def small_run(tmp_path, **extra):
    # quick-to-solve setup: coarse contract, default grid
    payload = {
        "schedule": {"T": 1.0, "m": 12},
        "output": {"dir": str(tmp_path / "out")},
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestConfigParsing:
    def test_defaults_are_table1(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}))
        ref = ModelParams()
        for f in ("R0", "kappa_rhat", "theta_y", "z0", "r_dom", "gamma_z"):
            assert getattr(cfg.model, f) == getattr(ref, f)
        assert np.array_equal(cfg.model.rho, np.eye(4))
        assert cfg.schedule.T == 5.0 and cfg.schedule.m == 120
        assert cfg.grid.n_R == 10
        assert cfg.schedule.n_quad == 1
        assert cfg.task == "price"

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, {"modle": {}}))
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, {"model": {"kappa": 1.0}}))

    def test_rho_pair_form(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, {"model": {"rho": {"R_z": 0.8, "z_y": -0.1}}}))
        rho = np.asarray(cfg.model.rho)
        assert rho[0, 2] == 0.8 and rho[2, 0] == 0.8
        assert rho[2, 3] == -0.1

    def test_rho_matrix_form(self, tmp_path):
        rho = np.eye(4).tolist()
        cfg = load_config(write_config(tmp_path, {"model": {"rho": rho}}))
        assert np.array_equal(cfg.model.rho, np.eye(4))

    def test_invalid_model_value(self, tmp_path):
        with pytest.raises(ConfigError, match="gamma_z"):
            load_config(write_config(tmp_path, {"model": {"gamma_z": -2.0}}))

    def test_sweep_requires_values(self, tmp_path):
        with pytest.raises(ConfigError, match="values"):
            load_config(write_config(tmp_path, {
                "task": "sweep", "sweep": {"parameter": "gamma_z", "values": []}}))

    def test_integral_floats_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "grid": {"n_y": 12.0}, "schedule": {"m": 24.0},
            "solver": {"n_quad": 2.0, "workers": 1.0},
            "mc": {"n_paths": 2000.0, "seed": 3.0}}))
        assert (cfg.grid.n_y, cfg.schedule.m, cfg.schedule.n_quad,
                cfg.mc.n_paths, cfg.mc.seed) == (12, 24, 2, 2000, 3)
        assert all(type(v) is int for v in (cfg.grid.n_y, cfg.schedule.m,
                                            cfg.mc.n_paths, cfg.mc.seed))

    def test_bad_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(path))


class TestSweepValue:
    def test_plain_field(self):
        p = apply_sweep_value(ModelParams(), "gamma_z", -0.4)
        assert p.gamma_z == -0.4

    def test_rho_pair(self):
        p = apply_sweep_value(ModelParams(), "rho.R_z", 0.8)
        assert np.asarray(p.rho)[0, 2] == 0.8

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            apply_sweep_value(ModelParams(), "nonsense", 1.0)

    @pytest.mark.parametrize("name", ["x0", "lambda0", "with_", "_value_key", "rho",
                                      "nonsense"])
    def test_only_scalar_fields_sweep(self, tmp_path, capsys, name):
        # attributes that are not scalar fields used to pass the name
        # check and fail inside the constructor with a TypeError
        with pytest.raises(ConfigError, match=f"unknown sweep parameter '{name}'"):
            apply_sweep_value(ModelParams(), name, 1.0)
        cfg = write_config(tmp_path, {"task": "sweep", "output": {"dir": str(tmp_path / "out")},
                                      "sweep": {"parameter": name, "values": [1.0]}})
        assert main(["--config", cfg]) == 2
        assert f"unknown sweep parameter '{name}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_price_task_artifacts(self, tmp_path):
        cfg = small_run(tmp_path)
        assert main(["--config", cfg]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "spread_report.json").read_text())
        assert "s_bps" in report and "basis_bps" in report
        lines = (out / "leg_terms.csv").read_text().splitlines()
        assert lines[0].startswith("# quantocds-csv-v1 schema=legterms")
        assert lines[2] == "i,t_i,A_i,B_i,C_i,D_i"
        assert len(lines) == 3 + 12

    def test_sweep_deterministic_bodies(self, tmp_path):
        cfg = small_run(tmp_path, task="sweep",
                        sweep={"parameter": "gamma_z", "values": [0.0, -0.2]})
        assert main(["--config", cfg]) == 0
        body1 = (tmp_path / "out" / "sweep_gamma_z.csv").read_text().splitlines()
        assert main(["--config", cfg]) == 0
        body2 = (tmp_path / "out" / "sweep_gamma_z.csv").read_text().splitlines()
        # identical except the timestamp comment
        strip = lambda ls: [l for l in ls if not l.startswith("# generated=")]
        assert strip(body1) == strip(body2)
        assert len(strip(body1)) == 2 + 2

    def test_sweep_workers_key_steers_nothing(self, tmp_path):
        # solver.workers is a legacy key: 1 and 2 write the same body, and
        # the sweep runs in the calling process, which loads no process pool
        sweep = {"parameter": "gamma_z", "values": [0.0, -0.5]}
        out = tmp_path / "out" / "sweep_gamma_z.csv"
        strip = lambda ls: [l for l in ls if not l.startswith("# generated=")]
        assert main(["--config", small_run(tmp_path, task="sweep", sweep=sweep,
                                           solver={"workers": 1})]) == 0
        one = strip(out.read_text().splitlines())
        cfg = small_run(tmp_path, task="sweep", sweep=sweep, solver={"workers": 2})
        src = str(Path(quantocds.__file__).resolve().parents[1])
        code = ("import json, sys\n"
                "from quantocds.cli import main\n"
                f"assert main(['--config', {cfg!r}]) == 0\n"
                "print(json.dumps([name for name in ('multiprocessing',"
                " 'concurrent.futures.process') if name in sys.modules]))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        assert strip(out.read_text().splitlines()) == one

    def test_mc_check_task(self, tmp_path):
        cfg = small_run(tmp_path, task="mc-check",
                        mc={"n_paths": 2000, "seed": 1})
        assert main(["--config", cfg]) == 0
        lines = (tmp_path / "out" / "mc_check.csv").read_text().splitlines()
        assert lines[2] == "pde_bps,mc_bps,mc_se_bps,z_score,pass"

    def test_mc_check_without_defaults(self, tmp_path):
        # no sampled path defaults, so the Monte Carlo standard error is
        # 0: the row is written with an infinite (or zero) z and the run
        # exits like any other check
        cfg = write_config(tmp_path, {"task": "mc-check", "model": {"y0": -40},
                                      "grid": {"y_min": -45}, "mc": {"n_paths": 2000},
                                      "output": {"dir": str(tmp_path / "out")}})
        assert main(["--config", cfg]) == 0
        lines = (tmp_path / "out" / "mc_check.csv").read_text().splitlines()
        row = dict(zip(lines[2].split(","), lines[3].split(",")))
        assert float(row["mc_se_bps"]) == 0.0
        gap = abs(float(row["pde_bps"]) - float(row["mc_bps"]))
        assert float(row["z_score"]) == (math.inf if gap > 0.0 else 0.0)
        assert bool(int(row["pass"])) == (gap == 0.0)

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "sweep"})
        assert main(["--config", cfg]) == 2
        assert main(["--config", str(tmp_path / "missing.json")]) == 2

    def test_solver_error_exit_code(self, tmp_path):
        # a wildly stiff operator destabilizes the explicit march: exit 1
        payload = {"model": {"sigma_y": 25.0},
                   "output": {"dir": str(tmp_path / "out")}}
        cfg = write_config(tmp_path, payload)
        assert main(["--config", cfg, "--task", "price"]) == 1

    @pytest.mark.parametrize("payload, argv", [
        ({"solver": {"n_quad": 0}}, []),
        ({"schedule": {"T": -1}}, []),
        ({"task": "sweep", "sweep": {"parameter": "gamma_z", "values": [-1.5]}}, []),
        ({"solver": {"workers": 0}}, []),
        ({"solver": {"dt": 0.0}}, []),
        ({"solver": {"dt": float("nan")}}, []),
        ({"model": {"r_dom": float("nan")}}, []),
        ({"schedule": {"T": float("inf")}}, []),
        ({"sweep": {"values": [0.0]}}, ["--task", "sweep"]),
        ({"task": "mc-check", "mc": {"seed": -1}}, []),
        ({"mc": {"antithetic": "false"}}, []),
        ({"mc": {"antithetic": False}}, []),
        ({}, ["--seed", "-1"]),
        ({"task": "mc-check", "mc": {"seed": 1.5}}, []),
        ({"task": "mc-check", "mc": {"n_paths": 2500.9}}, []),
        ({"schedule": {"m": 12.5}}, []),
        ({"solver": {"n_quad": 1.5}}, []),
        ({"solver": {"workers": 1.5}}, []),
        ({"grid": {"n_y": 10.7}}, []),
        ({"task": "mc-check", "mc": {"seed": True}}, []),
        ({"task": "mc-check", "mc": {"n_paths": True}}, []),
        ({"schedule": {"m": True}}, []),
        ({"solver": {"n_quad": True}}, []),
        ({"solver": {"workers": True}}, []),
        ({"grid": {"n_z": True}}, []),
        ({"model": 5}, []),
        ({"grid": [1, 2]}, []),
        ({"solver": "x"}, []),
        ({"schedule": 3}, []),
        ({"sweep": [0.1]}, []),
        ({"mc": None}, []),
        ({"model": {"rho": "abc"}}, []),
        ({"model": {"rho": {"R_z": "x"}}}, []),
        ({"model": {"rho": {"R_z": None}}}, []),
        ({"model": {"rho": [[1, 0], [0]]}}, []),
        ({"model": {"R0": [1, 2]}}, []),
        ({"output": {"dir": 5}}, []),
        ({"schedule": {"T": "5"}}, []),
        ({"mc": {"step": "0.02"}}, []),
        ({"solver": {"dt": "0.05"}}, []),
        ({"mc": None}, ["--seed", "3"]),
        ({"schedule": {"T": True}}, []),
        ({"model": {"R0": True}}, []),
        ({"model": {"rho": {"R_z": "0.8"}}}, []),
        ({"model": {"rho": {"R_z": True}}}, []),
        ({"model": {"rho": [[True, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}, []),
        ({"model": {"rho": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, "0"], [0, 0, 0, 1]]}}, []),
        ({"sweep": {"values": ["-0.2"]}}, []),
        ({"grid": {"z_max": True}}, []),
        ({"model": {"r_dom": -0.01}}, []),
        ({"task": "sweep", "sweep": {"parameter": "r_dom", "values": [0.01, -0.01]}}, []),
        ({"task": "sweep", "model": {"r_dom": -0.01},
          "sweep": {"parameter": "gamma_z", "values": [0.0]}}, []),
        ({"task": "benchmark", "model": {"r_dom": -0.01}}, []),
        ({"task": "benchmark", "model": {"kappa_R": 0.3, "sigma_R": 0.2}}, []),
        ({"task": "benchmark", "model": {"y0": 0.5}}, []),
    ], ids=["n_quad=0", "T=-1", "sweep-gamma_z=-1.5", "workers=0", "dt=0",
            "dt=nan", "r_dom=nan", "T=inf", "sweep-no-parameter",
            "mc.seed=-1", "mc.antithetic=string", "mc.antithetic=false", "seed=-1",
            "mc.seed=1.5", "mc.n_paths=2500.9", "m=12.5", "n_quad=1.5",
            "workers=1.5", "grid.n_y=10.7", "mc.seed=true",
            "mc.n_paths=true", "m=true", "n_quad=true", "workers=true",
            "grid.n_z=true", "model=5", "grid=list", "solver=string",
            "schedule=3", "sweep=list", "mc=null", "rho=string",
            "rho.R_z=string", "rho.R_z=null", "rho=ragged", "R0=list",
            "output.dir=5", "T=string", "mc.step=string", "dt=string",
            "mc=null+seed", "T=true", "R0=true", "rho.R_z=numeric-string",
            "rho.R_z=true", "rho=matrix-with-true", "rho=matrix-with-string",
            "sweep.values=numeric-string", "grid.z_max=true", "price-r_dom<0",
            "sweep-r_dom<0", "sweep-gamma_z-r_dom<0", "benchmark-r_dom<0",
            "benchmark-stochastic-R", "benchmark-y0=0.5"])
    def test_bad_config_exits_2_before_any_solve(self, tmp_path, capsys, payload, argv):
        cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}, **payload})
        assert main(["--config", cfg, *argv]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_threads_flag_refused(self, tmp_path, capsys):
        # every task runs in one process, so no flag sets a process count
        cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_offers_exactly_the_four_flags(self, capsys):
        # the flags play the role ACCEPTED_KEYS plays for config keys: a
        # new or returning flag is a deliberate edit of this set
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert flags == {"-h", "--help", "--config", "--task", "--out", "--seed"}

    def test_negative_r_dom_refused_where_the_domestic_contract_is_priced(
            self, tmp_path, capsys):
        # mc-check prices the model alone; price, sweep and benchmark also
        # price its domestic reduction, which pins rhat at r_dom
        cfg = small_run(tmp_path, task="mc-check", model={"r_dom": -0.01},
                        mc={"n_paths": 2000, "seed": 1})
        assert main(["--config", cfg]) == 0
        assert main(["--config", cfg, "--task", "price"]) == 2
        assert "r_dom = -0.01 must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, name", [
        ({"schedule": {"T": "5"}}, "T"),
        ({"mc": {"step": "0.02"}}, "step"),
        ({"model": {"R0": True}}, "R0"),
        ({"model": {"rho": {"R_z": "0.8"}}}, "rho.R_z"),
        ({"model": {"rho": np.eye(4).tolist()[:3] + [[0, 0, 0, "1"]]}}, "rho[3][3]"),
        ({"sweep": {"values": [0.1, "-0.2"]}}, "values[1]"),
    ])
    def test_non_number_error_names_the_field(self, tmp_path, capsys, payload, name):
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert f"{name} must be a real number" in capsys.readouterr().err

    def test_sweep_solves_the_domestic_contract_once(self, tmp_path, monkeypatch):
        # gamma_z does not reach the domestic contract: three foreign
        # pricers and one domestic one
        inits = []
        init = QuantoCdsPricer.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuantoCdsPricer, "__init__", counting_init)
        _solve_domestic.cache_clear()
        cfg = small_run(tmp_path, task="sweep",
                        sweep={"parameter": "gamma_z", "values": [-0.3, -0.2, -0.1]})
        assert main(["--config", cfg]) == 0
        assert len(inits) == 4
        assert [p.gamma_z for p in inits].count(0.0) == 1

    def test_overflowing_maturity_exits_2(self, tmp_path, capsys):
        # 1e400 parses to inf
        path = tmp_path / "cfg.json"
        path.write_text('{"schedule": {"T": 1e400}}')
        assert main(["--config", str(path)]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_dt_is_ignored(self, tmp_path):
        # solver.dt is accepted for older configs but steers nothing
        spreads = []
        for solver in ({}, {"dt": 0.05}, {"dt": 0.3}):
            cfg = small_run(tmp_path, solver=solver)
            assert main(["--config", cfg]) == 0
            rep = json.loads((tmp_path / "out" / "spread_report.json").read_text())
            spreads.append(rep["s_bps"])
        assert spreads[0] == spreads[1] == spreads[2]

    def test_task_override(self, tmp_path):
        # the flag replaces the key before the sweep check, so a sweep
        # block without a parameter does not stop --task price
        report = tmp_path / "out" / "spread_report.json"
        for sweep in ({"parameter": "gamma_z", "values": [0.0]}, {"values": [0.0]}):
            cfg = small_run(tmp_path, task="sweep", sweep=sweep)
            assert main(["--config", cfg, "--task", "price"]) == 0
            assert report.exists()
            report.unlink()


class TestLegCsv:
    """The price task formats the leg rows as one block; the file must
    hold the bytes of the per-value ``_fmt`` rendering."""

    @staticmethod
    def fmt_rendering(legs: LegTerms, schedule: CdsSchedule) -> str:
        dtc = schedule.coupon_interval
        rows = [[i + 1, (i + 1) * dtc, legs.A[i], legs.B[i], legs.C[i], legs.D[i]]
                for i in range(schedule.m)]
        lines = ["# quantocds-csv-v1 schema=legterms columns=i,t_i,A_i,B_i,C_i,D_i",
                 "i,t_i,A_i,B_i,C_i,D_i", *(",".join(_fmt(v) for v in row) for row in rows)]
        return "\n".join(lines) + "\n"

    def price(self, tmp_path, monkeypatch, payload, fake_legs=None):
        """Run the price task; returns the leg CSV without its timestamp
        line, and the legs and schedule it was written from."""
        seen, cli_basis = {}, cli.quanto_basis

        def basis(p, schedule, grid_cfg):
            rep = (cli_basis(p, schedule, grid_cfg) if fake_legs is None else
                   SpreadReport(s=0.01, s_d=0.01, s_d_1d=None, legs=fake_legs))
            seen["legs"], seen["schedule"] = rep.legs, schedule
            return rep

        monkeypatch.setattr(cli, "quanto_basis", basis)
        cfg = write_config(tmp_path, {**payload, "output": {"dir": str(tmp_path / "out")}})
        assert main(["--config", cfg, "--task", "price"]) == 0
        text = (tmp_path / "out" / "leg_terms.csv").read_bytes().decode()
        kept = [ln for ln in text.split("\n") if not ln.startswith("# generated=")]
        return "\n".join(kept), seen["legs"], seen["schedule"]

    def test_default_quote(self, tmp_path, monkeypatch):
        got, legs, schedule = self.price(tmp_path, monkeypatch, {})
        assert schedule.m == 120
        assert got == self.fmt_rendering(legs, schedule)

    def test_extreme_values(self, tmp_path, monkeypatch):
        values = np.array([0.0, -0.0, -1.5, -2.5e-7, 1e-300, 1e300, -1e300, 5e-324,
                           1 / 3, 123456789.0123])
        legs = LegTerms(A=values, B=-values[::-1], C=np.roll(values, 3), D=values * 7.1)
        got, _, schedule = self.price(tmp_path, monkeypatch,
                                      {"schedule": {"T": 3.7, "m": len(values)}}, legs)
        assert got == self.fmt_rendering(legs, schedule)


def test_cli_import_leaves_sparse_linalg_unloaded():
    # importing the command line pays for none of scipy.sparse.linalg,
    # the scipy.sparse package (the engine loads only its compiled
    # kernels), numpy.f2py, which scipy.sparse's array-API shim loads, or
    # a process pool
    src = str(Path(quantocds.__file__).resolve().parents[1])
    code = ("import json, sys, quantocds.cli\n"
            "print(json.dumps([name for name in ('scipy.sparse.linalg', 'scipy.sparse',"
            " 'numpy.f2py', 'multiprocessing', 'concurrent.futures.process')"
            " if name in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert json.loads(out.stdout) == []


def test_cli_quote_leaves_scipy_linalg_unloaded(tmp_path):
    # a frozen-recovery quote runs the Crank-Nicolson oracle, which solves
    # with numpy alone: neither scipy.sparse.linalg nor scipy.linalg
    # loads, nor the scipy.sparse package, numpy.f2py or a process pool
    src = str(Path(quantocds.__file__).resolve().parents[1])
    cfg = write_config(tmp_path, {"output": {"dir": str(tmp_path / "out")}})
    code = ("import json, sys\n"
            "from quantocds.cli import main\n"
            f"assert main(['--config', {cfg!r}]) == 0\n"
            "print(json.dumps([name for name in ('scipy.sparse.linalg', 'scipy.linalg',"
            " 'scipy.sparse', 'numpy.f2py', 'multiprocessing', 'concurrent.futures.process')"
            " if name in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    report = json.loads((tmp_path / "out" / "spread_report.json").read_text())
    assert math.isfinite(report["s_d_1d_bps"])
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_cli_import_starts_no_thread():
    # the Monte Carlo helper threads live only inside a call of the block
    # loop, so importing the command line starts no thread
    src = str(Path(quantocds.__file__).resolve().parents[1])
    code = "import threading, quantocds.cli; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.strip() == "1"


# Every key the config accepts, with a valid value, written out so that a
# new dataclass field cannot silently become a config key.
ACCEPTED_KEYS = {
    "model": {"R0": 0.45, "kappa_R": 0.0, "theta_R": 0.1, "sigma_R": 0.0,
              "rhat0": 0.03, "kappa_rhat": 0.08, "theta_rhat": 0.1,
              "sigma_rhat": 0.08, "y0": -4.089, "kappa_y": 1e-4,
              "theta_y": -210.0, "sigma_y": 0.4, "z0": 1.15, "sigma_z": 0.1,
              "r_dom": 0.02, "gamma_z": 0.0, "gamma_rhat": 0.0,
              "rho": {"R_rhat": 0.0, "R_z": 0.0, "R_y": 0.0,
                      "rhat_z": 0.0, "rhat_y": 0.0, "z_y": 0.0}},
    "grid": {"rhat_max": 1.0, "y_min": -6.0, "z_max": 4.0,
             "n_R": 10, "n_rhat": 10, "n_y": 10, "n_z": 10},
    "solver": {"dt": 0.05, "n_quad": 1, "workers": 1},
    "schedule": {"T": 5.0, "m": 120},
    "mc": {"n_paths": 100_000, "step": 1.0 / 48.0, "seed": 0},
    "sweep": {"parameter": "gamma_z", "values": [0.0]},
    "output": {"dir": "out"},
}

# one unknown key per section, and every field of a section's dataclass
# that the config does not expose (mc.block_size, schedule.n_quad)
_OWNERS = {"model": ModelParams, "grid": GridConfig, "schedule": CdsSchedule,
           "mc": McConfig}
_EXTRA_KEYS = [(None, "extra"), *[(name, "extra") for name in ACCEPTED_KEYS],
               *[(name, f.name) for name, cls in _OWNERS.items()
                 for f in fields(cls) if f.name not in ACCEPTED_KEYS[name]]]


def test_shipped_configs_load_without_legacy_keys():
    # solver.dt and solver.workers steer nothing, so no shipped config sets them
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        load_config(path)
        solver = json.loads(path.read_text()).get("solver", {})
        assert not {"dt", "workers"} & set(solver), path.name


class TestAcceptedKeys:
    def test_counts(self):
        assert {k: len(v) for k, v in ACCEPTED_KEYS.items()} == {
            "model": 18, "grid": 7, "solver": 3, "schedule": 2, "mc": 3,
            "sweep": 2, "output": 1}

    def test_every_listed_key_accepted(self, tmp_path):
        root = {**ACCEPTED_KEYS, "task": "sweep"}
        assert len(root) == 8
        cfg = load_config(write_config(tmp_path, root))
        assert cfg.task == "sweep" and cfg.sweep_parameter == "gamma_z"

    @pytest.mark.parametrize("section, extra", _EXTRA_KEYS)
    def test_one_extra_key_exits_2(self, tmp_path, capsys, section, extra):
        payload = {**ACCEPTED_KEYS, "output": {"dir": str(tmp_path / "out")}}
        if section is None:
            payload[extra] = {}
        else:
            payload[section] = {**payload[section], extra: 1000}
        assert main(["--config", write_config(tmp_path, payload)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


_MODEL_SCALARS = [f.name for f in fields(ModelParams) if f.name != "rho"]
_NON_FINITE_FIELDS = ([("model", k) for k in _MODEL_SCALARS]
                      + [("grid", k) for k in ("rhat_max", "y_min", "z_max")]
                      + [("schedule", "T"), ("solver", "dt"), ("mc", "step")])


class TestNonFiniteInput:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(_NON_FINITE_FIELDS),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejected_at_load(self, tmp_path_factory, field, value):
        # a non-finite field is a config error, never a solver failure
        section, key = field
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises((ParameterError, ValueError, ConfigError)):
            load_config(str(path))

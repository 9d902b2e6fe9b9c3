import os
import subprocess
import sys

import numpy as np
import pytest

import blasius_pinn
from blasius_pinn.cli import _atomic, main
from blasius_pinn.config import _KEY_TYPES, ConfigError, RunConfig, parse_config
from blasius_pinn.loss import CollocationGrid
from blasius_pinn.network import (CHECKPOINT_MAGIC, NetworkConfig, ParamVector, init_params,
                                  load_checkpoint, save_checkpoint)
from blasius_pinn.optim import AdamConfig
from oracle_reference import read_solution_csv

FAST_TRAIN = """
network.depth = 1
network.width = 8
network.seed = 0
adam.max_steps = 40
adam.switch_tol = 1e-12
lbfgs.max_iters = 25
grid.n = 20
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.grid == CollocationGrid(0.0, 8.0, 100)
        assert cfg.probe == CollocationGrid(-4.5, 7.0, 100)   # short of the pole at -5.69
        assert cfg.network == NetworkConfig() and cfg.network.width == 100
        assert cfg == RunConfig()

    def test_sections_and_comments(self):
        cfg = parse_config(
            "# a comment\n"
            "mode = train\n"
            "network.depth = 3   # inline comment\n"
            "adam.base_lr = 2e-3\n"
            "grid.eta_m = 6.5\n"
            "paths.plot_out = plot.svg\n"
        )
        assert cfg.mode == "train"
        assert isinstance(cfg.network, NetworkConfig) and cfg.network.depth == 3
        assert isinstance(cfg.adam, AdamConfig) and cfg.adam.base_lr == 2e-3
        assert isinstance(cfg.grid, CollocationGrid) and cfg.grid.eta_m == 6.5
        assert cfg.paths.plot_out == "plot.svg"

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("network.depht = 2\n")

    def test_rejects_bad_types_and_syntax(self):
        with pytest.raises(ConfigError):
            parse_config("network.depth = two\n")
        with pytest.raises(ConfigError):
            parse_config("adam.base_lr = fast\n")
        with pytest.raises(ConfigError):
            parse_config("just some text\n")

    def test_rejects_bad_mode_and_variant(self):
        with pytest.raises(ConfigError):
            parse_config("mode = fly\n")
        # the far-field condition is always f'(eta_m) = 1; the key is gone
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("boundary_variant = derivative\n")

    def test_invalid_values_surface_as_config_errors(self):
        # every section is validated when the text is parsed, naming the section
        with pytest.raises(ConfigError, match="^network: depth"):
            parse_config("network.depth = 0\n")
        with pytest.raises(ConfigError, match="^adam: decay"):
            parse_config("adam.decay = 0\n")

    def test_key_table(self):
        # a new config key is a reviewed change to this list
        assert sorted(_KEY_TYPES) == [
            "adam.base_lr", "adam.decay", "adam.max_steps", "adam.switch_tol",
            "grid.eta0", "grid.eta_m", "grid.n",
            "lbfgs.grad_tol", "lbfgs.max_iters",
            "mode",
            "network.depth", "network.seed", "network.width",
            "oracle.blowup_h", "oracle.eta_max", "oracle.h",
            "paths.checkpoint_in", "paths.checkpoint_out", "paths.csv_out",
            "paths.curve_out", "paths.plot_out", "paths.report_out",
            "probe.eta0", "probe.eta_m", "probe.n",
        ]


class TestCliModes:
    def test_train_writes_all_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_TRAIN + "paths.plot_out = plot.svg\n")
        rc = main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("ok mode=train loss_total=")
        net, p = load_checkpoint(tmp_path / "checkpoint.txt")
        assert net.depth == 1 and net.width == 8 and net.seed == 0
        table = read_solution_csv(tmp_path / "solution.csv")
        assert len(table) == 20
        report = (tmp_path / "report.txt").read_text()
        assert "loss_total:" in report and "lbfgs_status:" in report
        curve = (tmp_path / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "phase,step,loss"
        assert any(line.startswith("adam,") for line in curve[1:])
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg

    def test_train_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg, "--out", str(tmp_path), "--seed", "3"]) == 0
        assert "seed=3" in capsys.readouterr().out
        net, _ = load_checkpoint(tmp_path / "checkpoint.txt")
        assert net.seed == 3

    def test_train_determinism_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(d1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(d2)]) == 0
        capsys.readouterr()
        assert (d1 / "solution.csv").read_bytes() == (d2 / "solution.csv").read_bytes()
        assert (d1 / "checkpoint.txt").read_bytes() == (d2 / "checkpoint.txt").read_bytes()

    def test_solve_oracle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "oracle.h = 1e-3\n")
        rc = main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s_star=0.332" in out
        table = read_solution_csv(tmp_path / "solution.csv")
        assert abs(table.fp[-1] - 1.0) <= 1e-9

    def test_compare_after_train(self, tmp_path, capsys, trained_default):
        # a fully trained checkpoint: compare needs f' to actually reach 0.99
        p, _ = trained_default
        save_checkpoint(tmp_path / "checkpoint.txt", NetworkConfig(2, 100, 0), p)
        cfg_cmp = write_cfg(
            tmp_path,
            "paths.checkpoint_in = checkpoint.txt\n"
            "paths.csv_out = compare.csv\n"
            "oracle.h = 1e-3\n",
            name="cmp.cfg",
        )
        rc = main(["compare", "--config", cfg_cmp, "--out", str(tmp_path)])
        assert rc == 0
        assert "ok mode=compare" in capsys.readouterr().out
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "field,value"
        fields = {l.split(",")[0] for l in lines[1:]}
        assert {"max_abs_err_f", "wall_curvature_pinn", "eta99_oracle"} <= fields

    def test_compare_under_trained_network_reports_nan_eta99(self, tmp_path, capsys):
        # this network's f' never reaches 0.99 on [0, 8]
        assert main(["train", "--config", write_cfg(tmp_path, FAST_TRAIN), "--out", str(tmp_path)]) == 0
        cfg_cmp = write_cfg(
            tmp_path,
            "paths.checkpoint_in = checkpoint.txt\n"
            "paths.csv_out = compare.csv\n"
            "oracle.h = 1e-2\n",
            name="cmp.cfg",
        )
        assert main(["compare", "--config", cfg_cmp, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = dict(l.split(",", 1) for l in (tmp_path / "compare.csv").read_text().splitlines()[1:])
        assert rows["eta99_pinn"] == "nan"
        assert abs(float(rows["eta99_oracle"]) - 4.91) < 0.01

    def test_export_roundtrip(self, tmp_path, capsys):
        cfg_train = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg_train, "--out", str(tmp_path)]) == 0
        cfg_exp = write_cfg(
            tmp_path,
            "paths.checkpoint_in = checkpoint.txt\n"
            "paths.csv_out = export.csv\n"
            "grid.n = 33\n",
            name="exp.cfg",
        )
        assert main(["export", "--config", cfg_exp, "--out", str(tmp_path)]) == 0
        assert "rows=33" in capsys.readouterr().out
        table = read_solution_csv(tmp_path / "export.csv")
        assert len(table) == 33

    def test_probe_negative_fast(self, tmp_path, capsys):
        cfg_train = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg_train, "--out", str(tmp_path)]) == 0
        cfg_probe = write_cfg(
            tmp_path,
            "network.depth = 1\n"
            "network.width = 8\n"
            "adam.max_steps = 30\n"
            "adam.switch_tol = 1e-12\n"
            "lbfgs.max_iters = 15\n"
            "probe.n = 20\n"
            "oracle.blowup_h = 1e-3\n"
            "paths.checkpoint_in = checkpoint.txt\n"
            "paths.checkpoint_out = extended.txt\n"
            "paths.csv_out = extended.csv\n"
            "paths.report_out = probe.csv\n",
            name="probe.cfg",
        )
        rc = main(["probe-negative", "--config", cfg_probe, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok mode=probe-negative" in out
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        rows = dict(l.split(",", 1) for l in lines[1:])
        assert {"pin_value", "onset_eta", "oracle_blowup_eta"} <= set(rows)
        # this network's wall curvature (about 0.057) puts the pole of the
        # continuation below ETA_FLOOR, so the oracle finds no blow-up
        assert float(rows["pin_value"]) < 0.06
        assert "oracle_blowup_eta=none" in out and rows["oracle_blowup_eta"] == "nan"

    def test_probe_negative_grid_short_of_pole(self, tmp_path, capsys):
        # a probe grid that starts right of -5.5 must not crash the edge scan
        cfg_train = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg_train, "--out", str(tmp_path)]) == 0
        cfg_probe = write_cfg(
            tmp_path,
            FAST_TRAIN +
            "probe.eta0 = -4.5\n"
            "probe.n = 20\n"
            "oracle.blowup_h = 1e-3\n"
            "paths.checkpoint_in = checkpoint.txt\n"
            "paths.checkpoint_out = extended.txt\n"
            "paths.csv_out = extended.csv\n"
            "paths.report_out = probe.csv\n",
            name="probe.cfg",
        )
        rc = main(["probe-negative", "--config", cfg_probe, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pole_eta=" in out and "lbfgs_status=" in out
        rows = dict(l.split(",", 1) for l in (tmp_path / "probe.csv").read_text().splitlines()[1:])
        assert {"pole_eta", "lbfgs_status", "converged"} <= set(rows)
        assert rows["converged"] == str(int(rows["lbfgs_status"] == "converged"))

    def test_outputs_follow_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            _atomic(tmp_path / "out.txt", lambda tmp: open(tmp, "w").close())
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o644


class TestCliErrors:
    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error: config:" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "network.shape = big\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_compare_without_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "oracle.h = 1e-2\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        (tmp_path / "ck.txt").write_text("garbage\n")
        cfg = write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\noracle.h = 1e-2\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    @staticmethod
    def assert_exits_2(tmp_path, mode, cfg_path):
        # a separate process, so an uncaught exception shows as its exit code
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", mode, "--config", cfg_path, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: config:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode,line", [
        ("train", "grid.n = 1"),
        ("train", "grid.eta0 = 9"),
        ("solve-oracle", "oracle.h = 0"),
        ("solve-oracle", "oracle.h = -1"),
        ("train", "adam.base_lr = nan"),
        ("train", "grid.eta_m = inf"),
        ("train", "network.seed = -1"),
        ("train", "adam.base_lr = -1"),
        ("train", "adam.max_steps = -5"),
        ("train", "lbfgs.max_iters = -5"),
        ("solve-oracle", "network.depth = 0"),
        ("solve-oracle", "network.depth = -1" + "0" * 400),
        ("solve-oracle", "paths.csv_out = a\0b"),
        ("train", "network.width = 1" + "0" * 400),
        ("train", "network.width = 1000000"),
        # work bounds: grid points, and RK4 steps per integration
        ("train", "grid.n = 10000000000000"),
        ("solve-oracle", "oracle.h = 1e-300"),
        ("solve-oracle", "oracle.eta_max = 1e300"),
        ("solve-oracle", "oracle.eta_max = 1e-9"),
        ("solve-oracle", "oracle.blowup_h = 1e-300"),
        ("probe-negative", "paths.checkpoint_in = ck.txt\nadam.max_steps = 0\n"
                           "lbfgs.max_iters = 0\noracle.blowup_h = 1e-300"),
        # output paths must be given
        ("solve-oracle", "paths.csv_out ="),
        ("train", "paths.checkpoint_out ="),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, mode, line):
        # a valid checkpoint, so a mode that reads one gets past loading it
        net = NetworkConfig(1, 1, 0)
        save_checkpoint(tmp_path / "ck.txt", net, init_params(net))
        self.assert_exits_2(tmp_path, mode, write_cfg(tmp_path, line + "\n"))

    def test_seed_flag_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert "error: config: network: seed" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path):
        (tmp_path / "run.cfg").write_bytes(b"mode = train\n\xff\xfe\n")
        self.assert_exits_2(tmp_path, "solve-oracle", str(tmp_path / "run.cfg"))

    @pytest.mark.parametrize("checkpoint", [
        CHECKPOINT_MAGIC + "\n",                              # no header line
        CHECKPOINT_MAGIC + "\n1 1 0\n0.5\nnan\n0.5\n0.5\n",     # 1x1 network, 4 parameters
        CHECKPOINT_MAGIC + "\n1 1 0\n0.5\n-inf\n0.5\n0.5\n",
    ], ids=["magic_only", "nan_parameter", "inf_parameter"])
    def test_bad_checkpoint_exits_2(self, tmp_path, checkpoint):
        (tmp_path / "ck.txt").write_text(checkpoint)
        self.assert_exits_2(tmp_path, "export", write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\n"))

    def test_overflowing_network_exits_3(self, tmp_path):
        # finite parameters whose network output overflows: no table, no plot
        net = NetworkConfig(1, 100, 0)
        save_checkpoint(tmp_path / "ck.txt", net,
                        ParamVector(np.full(net.param_count(), 1e307), net.layer_shapes()))
        cfg = write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\npaths.plot_out = sol.svg\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", "export", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "error: divergence:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.txt", "run.cfg"]

    def test_unknown_mode_rejected_by_argparse(self, tmp_path, capsys):
        assert main(["swim", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "oracle.h = 1e-2\npaths.csv_out = /proc/readonly/x.csv\n")
        rc = main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 4
        assert "error: io:" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_files(self, tmp_path, capsys):
        # atomic writes: a failing run must not leave temp or partial outputs
        cfg = write_cfg(tmp_path, "network.depth = -1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()
        leftovers = [f.name for f in tmp_path.iterdir() if f.name != "run.cfg"]
        assert leftovers == []

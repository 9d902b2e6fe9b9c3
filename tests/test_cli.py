import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import blasius_pinn
from blasius_pinn import cli
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


# outputs that resolve to one file: the mode, its config lines and what the
# first output that collides is the same file as
SAME_FILE = {
    # the extended network would replace the trained one it was read from
    "probe_checkpoint": ("probe-negative", "paths.checkpoint_in = checkpoint.txt\n",
                         "paths.checkpoint_in"),
    "compare_csv": ("compare", "paths.checkpoint_in = checkpoint.txt\npaths.csv_out = checkpoint.txt\n",
                    "paths.checkpoint_in"),
    # the report would replace the table
    "train_csv_report": ("train", "paths.csv_out = same.txt\npaths.report_out = same.txt\n", "output"),
    "solve-oracle_csv_plot": ("solve-oracle", "paths.csv_out = t.csv\npaths.plot_out = ./t.csv\n",
                              "output"),
}


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

    def test_rejects_a_key_set_twice(self):
        # the later line would silently win, whichever of the two is the mistake
        with pytest.raises(ConfigError, match="^line 3: oracle.h is set twice$"):
            parse_config("oracle.h = 1e-2\n# finer\noracle.h = 1e-3\n")
        with pytest.raises(ConfigError, match="^line 2: mode is set twice$"):
            parse_config("mode = train\nmode = train\n")

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

    def test_sections_are_checked_together(self):
        # with the default network this probe span's onset scan needs a 4.6 GiB
        # workspace; at width 10 it needs 0.5 GiB, in either order of lines
        lines = ["probe.eta_m = 2000", "network.width = 10"]
        for text in ("\n".join(lines), "\n".join(lines[::-1])):
            assert parse_config(text).network.width == 10
        with pytest.raises(ConfigError, match="jet workspace"):
            parse_config(lines[0])

    def test_lbfgs_pairs_count_toward_the_memory_bound(self):
        # 9,706,201 parameters: the default probe's jet workspace takes 1.97
        # GiB, under the bound, but the refinement's layer factors for the
        # probe's 104 rows take 0.376 GiB beside it; parsing allocates
        # neither.  At depth 67 both fit.
        with pytest.raises(ConfigError, match="0.376 GiB of optimizer state"):
            parse_config("network.depth = 80\nnetwork.width = 350\n")
        assert parse_config("network.depth = 67\nnetwork.width = 350\n").network.depth == 67

    def test_jacobian_counts_toward_the_memory_bound(self, tmp_path, capsys):
        # the default network at 30,000 points: a 0.69 GiB jet workspace,
        # but a 6.71 GiB J J' and 26.8 GiB more in eigh
        with pytest.raises(ConfigError, match="34.1 GiB of optimizer state"):
            parse_config("grid.n = 30000\n")
        assert main(["train", "--config", write_cfg(tmp_path, "grid.n = 30000\n"),
                     "--out", str(tmp_path)]) == 2
        assert "optimizer state" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_eigh_counts_toward_the_memory_bound(self):
        # at 8,000 points J J' (0.48 GiB) fits, but eigh's copy of J J', its
        # workspace and the eigenvectors take 1.91 GiB more; 6,792 points
        # is the most that fits
        with pytest.raises(ConfigError, match="2.55 GiB of optimizer state"):
            parse_config("grid.n = 8000\n")
        assert parse_config("grid.n = 6792\n").grid.n == 6792
        with pytest.raises(ConfigError, match="optimizer state"):
            parse_config("grid.n = 6793\n")

    def test_key_table(self):
        # a new config key is a reviewed change to this list
        assert sorted(_KEY_TYPES) == [
            "adam.base_lr", "adam.decay", "adam.max_steps", "adam.switch_tol",
            "grid.eta0", "grid.eta_m", "grid.n",
            "lbfgs.grad_tol", "lbfgs.max_iters",
            "mode",
            "network.depth", "network.seed", "network.width",
            "oracle.eta_max", "oracle.h",
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

    @staticmethod
    def assert_g17(value):
        # a float as '%.17g' gives it, which round-trips it
        assert "%.17g" % float(value) == value

    def test_train_report_and_loss_curve_formats(self, tmp_path, capsys):
        assert main(["train", "--config", write_cfg(tmp_path, FAST_TRAIN), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = [line.split(": ") for line in (tmp_path / "report.txt").read_text().splitlines()]
        assert [key for key, _ in report] == [
            "seed", "adam_steps", "lbfgs_iters", "lbfgs_status", "loss_ode", "loss_init",
            "loss_boundary", "loss_pin", "loss_total", "best_loss", "wall_time_s",
            "fpp0", "profile"]
        fields = dict(report)
        assert fields["seed"] == "0" and fields["lbfgs_status"].isidentifier()
        assert fields["profile"] == ("blasius" if float(fields["fpp0"]) > 0.0 else "not_blasius")
        for key in ("loss_ode", "loss_init", "loss_boundary", "loss_pin", "loss_total", "best_loss",
                    "fpp0"):
            self.assert_g17(fields[key])
        assert re.fullmatch(r"\d+\.\d{3}", fields["wall_time_s"])
        curve = (tmp_path / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "phase,step,loss"
        rows = [line.split(",") for line in curve[1:]]
        adam, lbfgs = int(fields["adam_steps"]), int(fields["lbfgs_iters"])
        assert adam > 0 and lbfgs > 0 and len(rows) == adam + lbfgs
        assert [row[:2] for row in rows] == ([["adam", str(i)] for i in range(adam)] +
                                             [["lbfgs", str(i)] for i in range(1, lbfgs + 1)])
        for row in rows:
            self.assert_g17(row[2])

    @pytest.mark.parametrize("sign,profile", [(1.0, "blasius"), (-1.0, "not_blasius")])
    def test_train_reports_whether_its_profile_is_blasius(self, tmp_path, capsys, monkeypatch,
                                                          trained_default, sign, profile):
        # a trained network's checkpoint, its output layer scaled by sign:
        # negated, its f''(0) < 0 is no Blasius profile.  train still exits 0
        # and says so in the report and the ok line; no training runs here
        p, rep = trained_default
        save_checkpoint(tmp_path / "trained.txt", NetworkConfig(), p)
        _, q = load_checkpoint(tmp_path / "trained.txt")
        *_, (w, b) = q.layers()
        w *= sign
        b *= sign
        monkeypatch.setattr(cli, "train", lambda *args: (q, rep))
        assert main(["train", "--out", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert f" profile={profile} seed=0\n" in out
        report = (tmp_path / "run" / "report.txt").read_text().splitlines()
        fields = dict(line.split(": ") for line in report)
        assert fields["profile"] == profile
        table = read_solution_csv(tmp_path / "run" / "solution.csv")
        assert float(fields["fpp0"]) == table.fpp[0] and np.sign(table.fpp[0]) == sign

    def test_compare_csv_format(self, tmp_path, capsys):
        assert main(["train", "--config", write_cfg(tmp_path, FAST_TRAIN), "--out", str(tmp_path)]) == 0
        cfg = write_cfg(tmp_path, "paths.checkpoint_in = checkpoint.txt\n"
                                  "paths.csv_out = compare.csv\noracle.h = 1e-2\n", name="cmp.cfg")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "compare.csv").read_text().splitlines()
        assert lines[0] == "field,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [key for key, _ in rows] == [
            "max_abs_err_f", "max_abs_err_fp", "max_abs_err_fpp", "rms_err_f",
            "wall_curvature_pinn", "wall_curvature_oracle", "eta99_pinn", "eta99_oracle"]
        # this network's f' never reaches 0.99: its eta99 is nan
        assert dict(rows)["eta99_pinn"] == "nan"
        for _, value in rows:
            self.assert_g17(value)

    def test_probe_report_format(self, tmp_path, capsys):
        assert main(["train", "--config", write_cfg(tmp_path, FAST_TRAIN), "--out", str(tmp_path)]) == 0
        cfg = write_cfg(tmp_path, FAST_TRAIN + "probe.n = 20\n"
                                  "paths.checkpoint_in = checkpoint.txt\n"
                                  "paths.checkpoint_out = extended.txt\n"
                                  "paths.report_out = probe.csv\n", name="probe.cfg")
        assert main(["probe-negative", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = (tmp_path / "probe.csv").read_text().splitlines()
        assert lines[0] == "field,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [key for key, _ in rows] == [
            "pin_value", "max_abs_f_edge", "max_abs_residual_edge", "onset_eta", "median_fppp",
            "pole_eta", "final_loss", "oracle_blowup_eta", "converged", "lbfgs_status"]
        fields = dict(rows)
        # an estimate the probe does not find (None) is written as nan
        for key in ("onset_eta", "pole_eta", "oracle_blowup_eta"):
            assert (f"{key}=none" in out) == (fields[key] == "nan")
        assert "oracle_blowup_eta=none" in out
        for key, value in rows[:-2]:
            self.assert_g17(value)
        assert fields["converged"] in ("0", "1") and fields["lbfgs_status"].isidentifier()

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

    def test_key_set_twice_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "oracle.h = 1e-2\noracle.h = 1e-3\n")
        assert main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config: line 2: oracle.h is set twice\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]

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
        # 10^7 fine steps, but shoot's coarse pass at step 1e-2 takes more
        ("solve-oracle", "oracle.eta_max = 1e6\noracle.h = 0.1"),
        ("solve-oracle", "oracle.eta_max = 1e300\noracle.h = 1e294"),
        ("compare", "paths.checkpoint_in = ck.txt\noracle.eta_max = 1e6\noracle.h = 0.1"),
        # jet workspace bytes: the training grid, a deep network, and
        # growth_onset's scan over a long probe span
        ("train", "grid.n = 1000000"),
        ("train", "network.depth = 1000000\nnetwork.width = 1"),
        ("probe-negative", "paths.checkpoint_in = ck.txt\nprobe.eta_m = 1000000"),
        # output paths must be given
        ("solve-oracle", "paths.csv_out ="),
        ("train", "paths.checkpoint_out ="),
        # and name a file, not a directory
        ("train", "paths.curve_out = sub/"),
        # a grid span past the float range, whose linspace nodes are nan and inf
        ("train", "grid.eta0 = -1e308\ngrid.eta_m = 1e308"),
        ("export", "paths.checkpoint_in = ck.txt\ngrid.eta0 = -1e308\ngrid.eta_m = 1e308"),
        ("probe-negative", "paths.checkpoint_in = ck.txt\nprobe.eta0 = -1e308\nprobe.eta_m = 1e308"),
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
        # under MAX_PARAMS, but a 256-node tabulate block needs 15 GiB
        CHECKPOINT_MAGIC + "\n1000000 1 0\n" + "0\n" * NetworkConfig(10 ** 6, 1, 0).param_count(),
    ], ids=["magic_only", "nan_parameter", "inf_parameter", "deep_narrow"])
    def test_bad_checkpoint_exits_2(self, tmp_path, checkpoint):
        (tmp_path / "ck.txt").write_text(checkpoint)
        self.assert_exits_2(tmp_path, "export", write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\n"))

    @pytest.mark.parametrize("mode,text", [
        # finite parameters whose network output overflows
        ("export", "paths.checkpoint_in = ck.txt\n"),
        # an Adam step that overflows the parameters
        ("train", FAST_TRAIN + "adam.base_lr = 1e300\n"),
        # accepted by the config, but s* = 1 / eta_max = 1e310 is past the
        # float range
        ("solve-oracle", "oracle.eta_max = 1e-310\noracle.h = 1e-310\n"),
        ("compare", "paths.checkpoint_in = ck.txt\noracle.eta_max = 1e-310\noracle.h = 1e-310\n"),
    ], ids=["export", "train", "solve-oracle_wall_curvature", "compare_wall_curvature"])
    def test_overflowing_network_exits_3(self, tmp_path, mode, text):
        # no table, no plot, no checkpoint
        net = NetworkConfig(1, 100, 0)
        save_checkpoint(tmp_path / "ck.txt", net,
                        ParamVector(np.full(net.param_count(), 1e307), net.layer_shapes()))
        cfg = write_cfg(tmp_path, text + "paths.plot_out = sol.svg\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", mode, "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        # one error line: no numpy RuntimeWarning from the overflow before it
        assert proc.stderr.startswith("error: divergence:")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.txt", "run.cfg"]

    def test_plot_range_past_the_float_range_exits_3(self, tmp_path):
        # f = 1.7e308 everywhere, f' = f'' = 0 and residual 0: a finite
        # table whose y range padded by 5% overflows; no CSV without its SVG
        net = NetworkConfig(1, 1, 0)
        save_checkpoint(tmp_path / "ck.txt", net,
                        ParamVector(np.array([0.0, 0.0, 0.0, 1.7e308]), net.layer_shapes()))
        cfg = write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\npaths.plot_out = sol.svg\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", "export", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: divergence:")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.txt", "run.cfg"]

    @pytest.mark.parametrize("mode", ["train", "solve-oracle", "probe-negative", "export"])
    def test_failed_plot_check_writes_nothing(self, tmp_path, capsys, monkeypatch, mode):
        # every mode that writes a table checks its plot after all else it
        # computes; no file, not even the checkpoint, may come before that
        net = NetworkConfig(1, 8, 0)
        save_checkpoint(tmp_path / "ck.txt", net, init_params(net))

        def unplottable(*args):
            raise ValueError("no plot range")

        monkeypatch.setattr(cli, "plot_limits", unplottable)
        cfg = write_cfg(tmp_path, FAST_TRAIN + "probe.n = 20\noracle.h = 1e-2\n"
                                  "paths.checkpoint_in = ck.txt\n"
                                  "paths.plot_out = sol.svg\n")
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: divergence:") and err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.txt", "run.cfg"]

    @pytest.mark.parametrize("grid", [
        # 1e17 + 5 == 1e17: a tick loop stepping by 5 would never end
        "grid.eta0 = 1e17\ngrid.eta_m = 1.0000000000000002e17\n",
        # a span whose fifth underflows to 0
        "grid.eta0 = 0\ngrid.eta_m = 5e-324\n",
    ], ids=["eta0_1e17", "eta_m_5e-324"])
    def test_export_plot_of_a_tiny_span_exits_0(self, tmp_path, grid):
        net = NetworkConfig(1, 4, 0)
        save_checkpoint(tmp_path / "ck.txt", net, init_params(net))
        cfg = write_cfg(tmp_path, "paths.checkpoint_in = ck.txt\npaths.plot_out = sol.svg\n"
                                  "grid.n = 2\n" + grid)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        # the address-space cap stops a runaway tick list before it takes the machine's memory
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", "export", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        svg = (tmp_path / "sol.svg").read_text()
        assert svg.count("<polyline") == 3 and "nan" not in svg

    def test_smallest_domain_exits_0_within_seconds(self, tmp_path):
        # accepted by the config (one RK4 step); s* = 1 / eta_max = 1e300, and
        # a normalised march at the unscaled coarse step would need
        # eta_max^(-1/3) = 10^100 steps to reach the crossing
        cfg = write_cfg(tmp_path, "oracle.eta_max = 1e-300\noracle.h = 1e-300\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(blasius_pinn.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "blasius_pinn.cli", "solve-oracle", "--config", cfg,
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        # s* in significant digits, not 301 of them in fixed point
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 80 and "s_star=1e+300" in lines[0]
        table = read_solution_csv(tmp_path / "solution.csv")
        assert len(table) == 2 and abs(table.fp[-1] - 1.0) <= 1e-10
        assert table.fpp[0] == pytest.approx(1e300, rel=1e-12)

    @pytest.mark.parametrize("mode,text,names", SAME_FILE.values(), ids=list(SAME_FILE))
    def test_outputs_that_name_one_file_exit_2(self, tmp_path, capsys, mode, text, names):
        net = NetworkConfig(1, 8, 0)
        save_checkpoint(tmp_path / "checkpoint.txt", net, init_params(net))
        before = (tmp_path / "checkpoint.txt").read_bytes()
        cfg = write_cfg(tmp_path, FAST_TRAIN + "probe.n = 20\noracle.h = 1e-2\n" + text)
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: config: output ") and err.count("\n") == 1
        assert f"is the same file as {names}" in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["checkpoint.txt", "run.cfg"]
        assert (tmp_path / "checkpoint.txt").read_bytes() == before

    @pytest.mark.parametrize("mode,text,code", [
        *((mode, text, 2) for mode, text, _ in SAME_FILE.values()),
        ("solve-oracle", "paths.plot_out = dir.svg\n", 4),
    ], ids=[*SAME_FILE, "solve-oracle_dir_plot"])
    def test_targets_are_checked_before_compute(self, tmp_path, capsys, monkeypatch,
                                                mode, text, code):
        # a colliding or directory target fails before any training, shooting
        # or tabulating starts
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output targets were checked")

        for name in ("train", "shoot", "compare", "probe_negative", "tabulate"):
            monkeypatch.setattr(cli, name, computed)
        net = NetworkConfig(1, 8, 0)
        save_checkpoint(tmp_path / "checkpoint.txt", net, init_params(net))
        (tmp_path / "dir.svg").mkdir()
        cfg = write_cfg(tmp_path, FAST_TRAIN + "probe.n = 20\noracle.h = 1e-2\n" + text)
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["checkpoint.txt", "dir.svg", "run.cfg"]

    def test_train_may_write_the_checkpoint_it_does_not_read(self, tmp_path, capsys):
        # one config for train and then compare: train ignores paths.checkpoint_in
        cfg = write_cfg(tmp_path, FAST_TRAIN + "paths.checkpoint_in = checkpoint.txt\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert load_checkpoint(tmp_path / "checkpoint.txt")[0] == NetworkConfig(1, 8, 0)

    def test_unknown_mode_rejected_by_argparse(self, tmp_path, capsys):
        assert main(["swim", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "oracle.h = 1e-2\npaths.csv_out = /proc/readonly/x.csv\n")
        rc = main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 4
        assert "error: io:" in capsys.readouterr().err

    def test_output_name_of_250_characters_exits_0(self, tmp_path, capsys):
        # the staged file's name stays short however long the target's is
        name = "a" * 250 + ".csv"
        cfg = write_cfg(tmp_path, f"oracle.h = 1e-2\npaths.csv_out = {name}\n")
        assert main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(f.name for f in tmp_path.iterdir()) == [name, "run.cfg"]
        assert len(read_solution_csv(tmp_path / name)) > 1

    def test_failed_write_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        # the checkpoint and the report are staged before the loss curve's
        # directory cannot be made: the run leaves none of them
        cfg = write_cfg(tmp_path, FAST_TRAIN + "paths.curve_out = /proc/readonly/curve.csv\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "error: io:" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]

        # the table is staged before a plot path that a rename could not
        # reach (missing/.. needs missing) or replace (a directory)
        (tmp_path / "dir.svg").mkdir()
        for plot in ("missing/../sol.svg", "dir.svg"):
            cfg = write_cfg(tmp_path, f"oracle.h = 1e-2\npaths.plot_out = {plot}\n")
            assert main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)]) == 4
            assert "error: io:" in capsys.readouterr().err
            assert sorted(f.name for f in tmp_path.iterdir()) == ["dir.svg", "run.cfg"]
        (tmp_path / "dir.svg").rmdir()

        # and before a plot writer that fails part-way
        def full_disk(table, path, title):
            with open(path, "w") as fh:
                fh.write("<svg")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "plot_solution_table", full_disk)
        cfg = write_cfg(tmp_path, "oracle.h = 1e-2\npaths.plot_out = sol.svg\n")
        assert main(["solve-oracle", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]

    def test_failed_write_removes_the_directories_it_made(self, tmp_path, capsys):
        # the loss curve's directory and --out are made while staging, before
        # the table's path through a missing directory fails: both go again
        bad = "paths.csv_out = missing/../x.csv\n"
        out = tmp_path / "out"
        for text in (FAST_TRAIN + "paths.curve_out = sub/c.csv\n" + bad, FAST_TRAIN + bad):
            cfg = write_cfg(tmp_path, text)
            assert main(["train", "--config", cfg, "--out", str(out)]) == 4
            assert "error: io:" in capsys.readouterr().err
            assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg"]

        # a directory that was there before the run stays, and so does
        # what it held
        (out / "kept").mkdir(parents=True)
        cfg = write_cfg(tmp_path, FAST_TRAIN + "paths.curve_out = sub/c.csv\n" + bad)
        assert main(["train", "--config", cfg, "--out", str(out)]) == 4
        capsys.readouterr()
        assert sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*")) == [
            "out", os.path.join("out", "kept"), "run.cfg"]

    def test_a_directory_made_by_another_run_in_between_is_not_this_runs(
            self, tmp_path, monkeypatch):
        # another run makes `shared` after this run saw it missing: this run
        # goes on, and records only the directory that it made itself
        shared = str(tmp_path / "shared")
        mkdir = os.mkdir

        def racing_mkdir(path, *args):
            if path == shared:
                mkdir(path)
            mkdir(path, *args)

        monkeypatch.setattr(cli.os, "mkdir", racing_mkdir)
        made = []
        cli._make_parents(os.path.join(shared, "s0", "x.csv"), made)
        assert made == [os.path.join(shared, "s0")]

    def test_failed_run_leaves_no_partial_files(self, tmp_path, capsys):
        # atomic writes: a failing run must not leave temp or partial outputs
        cfg = write_cfg(tmp_path, "network.depth = -1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        capsys.readouterr()
        leftovers = [f.name for f in tmp_path.iterdir() if f.name != "run.cfg"]
        assert leftovers == []

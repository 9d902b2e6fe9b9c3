"""Property tests at the two places outside input enters the program, config
text and checkpoint files, and at the CLI as a whole.  Each input must
either load or raise the one error the CLI maps to exit code 2; any other
exception would reach the user as a traceback.  The CLI exits 0, 2, 3 or 4
on every config."""

import contextlib
import io
import os
import shutil
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blasius_pinn import cli
from blasius_pinn.config import _KEY_TYPES, MODES, ConfigError, RunConfig, parse_config
from blasius_pinn.loss import MAX_POINTS
from blasius_pinn.network import (CHECKPOINT_MAGIC, MAX_WORKSPACE_BYTES, NetworkConfig, ParamVector,
                                  init_params, load_checkpoint, save_checkpoint, workspace_bytes)
from blasius_pinn.oracle import MAX_STEPS, coarse_step

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10 ** 500), max_value=10 ** 500),
    st.floats(),
).map(str)
values = st.one_of(numbers, st.text(), st.sampled_from(["train", ""]))
keys = st.one_of(st.sampled_from(sorted(_KEY_TYPES)), st.text())
config_lines = st.one_of(
    st.builds(lambda k, v: f"{k} = {v}", keys, values),
    st.text(),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(config_lines, max_size=8))
def test_config_text_parses_or_raises_config_error(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # a config that parses asks for bounded work
    assert cfg.grid.n <= MAX_POINTS and cfg.probe.n <= MAX_POINTS
    assert cfg.oracle.eta_max / cfg.oracle.h <= MAX_STEPS
    assert cfg.oracle.eta_max / coarse_step(cfg.oracle.h, cfg.oracle.eta_max) <= MAX_STEPS
    assert workspace_bytes(cfg.network, max(cfg.grid.n, cfg.probe.n) + 2) <= MAX_WORKSPACE_BYTES


header = st.one_of(
    st.tuples(st.integers(), st.integers(), st.integers()).map(lambda t: " ".join(map(str, t))),
    st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(0, 3)).map(
        lambda t: " ".join(map(str, t))),
    st.text(),
)
checkpoint_lines = st.tuples(
    st.one_of(st.just(CHECKPOINT_MAGIC), st.text()),
    st.lists(header, max_size=1),
    st.lists(st.one_of(numbers, st.text()), max_size=30),
).map(lambda t: [t[0], *t[1], *t[2]])


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(checkpoint_lines)
def test_checkpoint_text_loads_or_raises_value_error(tmp_path, lines):
    path = tmp_path / "checkpoint.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        cfg, p = load_checkpoint(path)
    except ValueError:
        return
    assert isinstance(cfg, NetworkConfig) and isinstance(p, ParamVector)
    assert len(p) == cfg.param_count()


# every mode on a tiny budget; a mode that reads a checkpoint reads in.txt
TINY = {
    "network.depth": "1", "network.width": "4", "adam.max_steps": "5", "lbfgs.max_iters": "3",
    "grid.n": "8", "probe.n": "8", "oracle.h": "0.05", "paths.checkpoint_in": "in.txt",
}
# values that some keys reject, that make a run diverge, or that no key takes
extreme = st.sampled_from(["0", "-1", "1e300", "-1e300", "nan", "1e400", "2.5", "x", ""])


def between(lo, hi):
    return st.floats(lo, hi).map(repr)


# values that keep the work small, or that the config or the run rejects:
# a network that blows up, a far field the oracle cannot shoot to, a width
# of 1 whose every layer has fan-in or fan-out 1
NUMERIC = {
    "network.depth": st.integers(0, 3), "network.width": st.integers(0, 6),
    "network.seed": st.integers(-1, 3), "adam.max_steps": st.integers(-1, 12),
    "adam.base_lr": between(1e-4, 1e3), "adam.decay": between(0.0, 1.5),
    "adam.switch_tol": between(0.0, 10.0), "lbfgs.max_iters": st.integers(-1, 6),
    "lbfgs.grad_tol": between(0.0, 1.0), "grid.n": st.integers(-1, 24),
    "grid.eta0": between(-12.0, 12.0), "grid.eta_m": between(-12.0, 12.0),
    "probe.n": st.integers(-1, 24), "probe.eta0": between(-12.0, 12.0),
    "probe.eta_m": between(-12.0, 12.0), "oracle.h": between(1e-2, 2.0),
    "oracle.eta_max": between(-1.0, 12.0),
}
path_values = st.one_of(
    st.sampled_from(["a.csv", "sub/b.txt", "in.txt", "checkpoint.txt", "report.txt", ".", "..",
                     "missing/../c.csv", "sub/", "", "plot.svg"]),
    st.text(alphabet="ab.-_ ", max_size=6),
)
lines = st.lists(
    st.sampled_from(sorted(NUMERIC) + [k for k in sorted(_KEY_TYPES) if k.startswith("paths.")]),
    unique=True, max_size=4,
).flatmap(lambda keys: st.fixed_dictionaries({
    k: st.one_of(NUMERIC[k].map(str), extreme) if k in NUMERIC else path_values for k in keys}))
CHECKPOINT = init_params(NetworkConfig(depth=1, width=4))


def entries_under(root):
    """Every file and directory below root, a directory with a trailing /."""
    return sorted(os.path.relpath(os.path.join(d, f), root) + end
                  for d, dirs, names in os.walk(root)
                  for entries, end in ((names, ""), (dirs, "/")) for f in entries)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(MODES), lines, st.one_of(st.none(), st.integers(-1, 3)))
# staging makes sub/ for the loss curve before the table's path fails
@example("train", {"paths.curve_out": "sub/b.txt", "paths.csv_out": "missing/../c.csv"}, None)
def test_cli_exits_0_2_3_or_4_and_a_failure_writes_nothing(tmp_path, mode, changed, seed):
    out = tempfile.mkdtemp(dir=tmp_path)
    try:
        save_checkpoint(os.path.join(out, "in.txt"), NetworkConfig(depth=1, width=4), CHECKPOINT)
        with open(os.path.join(out, "in.txt"), "rb") as fh:
            checkpoint = fh.read()
        with open(os.path.join(out, "run.cfg"), "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in {**TINY, **changed}.items())
        before = entries_under(out)
        argv = [mode, "--config", os.path.join(out, "run.cfg"), "--out", out]
        if seed is not None:
            argv += ["--seed", str(seed)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert stdout.getvalue().startswith(f"ok mode={mode} ") and not stderr.getvalue()
        else:
            errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and not stdout.getvalue(), stderr.getvalue()
            assert entries_under(out) == before
            with open(os.path.join(out, "in.txt"), "rb") as fh:
                assert fh.read() == checkpoint
    finally:
        shutil.rmtree(out)

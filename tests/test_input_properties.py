"""Property tests at the two places outside input enters the program: config
text and checkpoint files.  Each must either load or raise the one error the
CLI maps to exit code 2; any other exception would reach the user as a
traceback."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blasius_pinn.config import _KEY_TYPES, ConfigError, RunConfig, parse_config
from blasius_pinn.loss import MAX_POINTS
from blasius_pinn.network import (CHECKPOINT_MAGIC, MAX_WORKSPACE_BYTES, NetworkConfig, ParamVector,
                                  load_checkpoint, workspace_bytes)
from blasius_pinn.oracle import ETA_FLOOR, MAX_STEPS, coarse_step

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
    assert -ETA_FLOOR / cfg.oracle.blowup_h <= MAX_STEPS
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

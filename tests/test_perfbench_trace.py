"""The benchmark's per-layer trace (perfbench/spans.py) replaces names in the
modules that look them up at call time, such as `blasius_pinn.cli.train`.
This guards those bindings: a refactor that renames or stops looking up one of
them fails here, not in a traced benchmark run."""

import importlib.util
from pathlib import Path

from blasius_pinn import cli

from test_cli import FAST_TRAIN, write_cfg

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_binds_and_restores_every_name(tmp_path, capsys, trained_default):
    from blasius_pinn.network import NetworkConfig, save_checkpoint

    save_checkpoint(tmp_path / "trained.txt", NetworkConfig(2, 100, 0), trained_default[0])
    spans = load_spans()
    tracer = spans.Tracer()
    originals = {}
    try:
        spans.install(tracer)
        originals = {(m, attr): orig for m, attr, orig in tracer._restore}
        assert len(originals) == 21
        # train then compare cross every name the trace binds in cli
        cfg = write_cfg(tmp_path, FAST_TRAIN + "paths.plot_out = plot.svg\n")
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 0
        cmp = write_cfg(tmp_path, "paths.checkpoint_in = trained.txt\n"
                                  "paths.csv_out = compare.csv\noracle.h = 1e-2\n", name="cmp.cfg")
        assert cli.main(["compare", "--config", cmp, "--out", str(tmp_path)]) == 0
    finally:
        tracer.unwrap_all()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert {"optim.train", "oracle.shoot", "analysis.compare", "analysis.tabulate",
            "cli.load_checkpoint", "cli.write", "plotting.svg"} <= recorded
    # the layers below the CLI: a kernel or reverse pass called past the
    # names the trace binds would leave its span out
    assert {"network.forward", "network.backward", "kernels.forward", "kernels.backward",
            "grad.loss_and_grad", "optim.adam_step"} <= recorded
    for (module, attr), orig in originals.items():
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr} not restored"
    assert callable(cli.load_config)

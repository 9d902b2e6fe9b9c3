"""Spans and counters recorded around the program's public functions.

The package's modules import names directly (`from .grad import
loss_and_grad`), so each wrapper is bound in the module that looks the name
up at call time: `blasius_pinn.optim.loss_and_grad`, not
`blasius_pinn.grad.loss_and_grad`.  Nothing under `src/` is edited; the
wrappers are installed for one traced phase and removed after it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import types
from collections import defaultdict

# Per-layer metrics in the order BENCHMARK.json lists them.  A metric whose
# layer the workload never enters reads 0.
LAYER_METRICS = {
    "kernels.forward_s": "s", "kernels.backward_s": "s", "kernels.calls": "count",
    "kernels.elems": "count", "kernels.elems_per_s": "1/s", "kernels.bytes_computed": "B",
    "network.forward_s": "s", "network.backward_s": "s", "network.self_s": "s",
    "network.points": "count", "network.gemm_flops_computed": "flop",
    "grad.calls": "count", "grad.s": "s", "grad.self_s": "s", "grad.call_us_p50": "us",
    "optim.self_s": "s", "optim.adam_steps": "count", "optim.lbfgs_iters": "count",
    "optim.line_search_evals": "count", "optim.evals_to_1e-5": "count",
    "optim.evals_to_1e-8": "count",
    "oracle.shoot_s": "s", "oracle.secant_iters": "count", "oracle.blowup_s": "s",
    "oracle.rk4_steps": "count", "oracle.rk4_steps_per_s": "1/s",
    "analysis.compare_s": "s", "analysis.tabulate_s": "s", "analysis.rows": "count",
    "cli.write_s": "s", "cli.bytes_written": "B", "cli.load_checkpoint_s": "s",
    "cli.self_s": "s", "plotting.svg_s": "s", "plotting.svg_bytes": "B",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count", "trace.overhead_computed_s": "s", "trace.layers_self_s": "s",
}


class Tracer:
    """In-memory spans: (name, start, end, parent index, run id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span and return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.run_id)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a spanned call; count(counts, args, result)
        adds the layer's work counters after each call."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def self_times(self) -> dict:
        """Seconds per span name, minus the time covered by child spans."""
        own = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            own[name] += t1 - t0
            if parent >= 0:
                own[self.spans[parent][0]] -= t1 - t0
        return own

    def totals(self) -> dict:
        """Seconds per span name, children included."""
        total = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            total[name] += t1 - t0
        return total

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)


def span_cost(calls: int = 50_000) -> float:
    """Seconds one wrapped call costs more than a bare one, on this machine."""
    def nothing():
        return None

    module = types.SimpleNamespace(f=nothing)
    Tracer().wrap(module, "f", "cost")
    best = []
    for fn in (nothing, module.f):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return max(0.0, (best[1] - best[0]) / calls)


def _gemm_flops(shapes, n: int, backward: bool) -> float:
    """2 * m * k * n per matrix product, as network.py computes them: forward
    one (4n x fan_in) @ (fan_in x fan_out) per layer; backward the weight
    adjoint per layer and the input adjoint for every layer but the first."""
    flops = 0.0
    for li, (fi, fo) in enumerate(shapes):
        flops += 8.0 * n * fi * fo
        if backward and li > 0:
            flops += 8.0 * n * fi * fo
    return flops


def _count_kernel_forward(c, args, result):
    c["kernels.calls"] += 1
    c["kernels.elems"] += args[0].size
    # computed, not measured: read z (4N), write out (4N) and t (N)
    c["kernels.bytes_computed"] += 8 * 9 * args[0].shape[1]


def _count_kernel_backward(c, args, result):
    c["kernels.calls"] += 1
    c["kernels.elems"] += args[1].size
    # computed: read t (N), z (4N), abar (4N), write zbar (4N)
    c["kernels.bytes_computed"] += 8 * 13 * args[1].shape[1]


def _count_forward(c, args, result):
    n = len(args[1])
    c["network.points"] += n
    c["network.gemm_flops_computed"] += _gemm_flops(args[0].shapes, n, backward=False)


def _count_backward(c, args, result):
    n = args[2].shape[1]
    c["network.points"] += n
    c["network.gemm_flops_computed"] += _gemm_flops(args[0].shapes, n, backward=True)


def _count_train(c, args, result):
    report = result[1]
    c["optim.adam_steps"] += report.adam_steps
    c["optim.lbfgs_iters"] += len(report.lbfgs_history)


def _count_line_search(c, args, result):
    c["optim.line_search_evals"] += result[4]


def _count_shoot(c, args, result):
    c["oracle.secant_iters"] += result.iterations


def _count_steps(c, args, result):
    # _integrate_end(s, h, eta_max) and rk4_shoot(s, h, eta_max)
    c["oracle.rk4_steps"] += round(abs(args[2]) / args[1])


def _count_blowup(c, args, result):
    # one step past the returned eta is the one that crossed the limit
    c["oracle.rk4_steps"] += round(-result / args[1]) + 1


def _count_rows(c, args, result):
    c["analysis.rows"] += len(result)


def _count_written(c, args, result):
    c["cli.bytes_written"] += os.path.getsize(args[0])


def _count_svg(c, args, result):
    c["plotting.svg_bytes"] += os.path.getsize(args[1])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from blasius_pinn import analysis, cli, grad, kernels, loss, optim, oracle

    w = tracer.wrap
    w(kernels, "tanh_jet_forward", "kernels.forward", _count_kernel_forward)
    w(kernels, "tanh_jet_backward", "kernels.backward", _count_kernel_backward)
    for module in (grad, analysis, loss):
        w(module, "forward_jet_batch", "network.forward", _count_forward)
    w(grad, "backward_jet_batch", "network.backward", _count_backward)
    w(optim, "loss_and_grad", "grad.loss_and_grad")
    w(cli, "train", "optim.train", _count_train)
    w(optim, "lbfgs_minimize", "optim.lbfgs")
    w(optim, "_strong_wolfe", "optim.line_search", _count_line_search)
    w(optim, "adam_step", "optim.adam_step")
    w(cli, "shoot", "oracle.shoot", _count_shoot)
    w(oracle, "_integrate_end", "oracle.integrate", _count_steps)
    w(oracle, "rk4_shoot", "oracle.rk4_table", _count_steps)
    w(oracle, "backward_blowup", "oracle.blowup", _count_blowup)
    w(cli, "compare", "analysis.compare")
    for module in (cli, analysis):
        w(module, "tabulate", "analysis.tabulate", _count_rows)
    w(cli, "load_checkpoint", "cli.load_checkpoint")
    w(cli, "_atomic", "cli.write", _count_written)
    w(cli, "plot_solution_table", "plotting.svg", _count_svg)


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float,
                  untraced_wall: float, evals_to: dict) -> dict:
    """Per-layer figures per round, from the spans of `rounds` traced rounds.

    `_s` figures include the layer's child spans; `self_s` figures and the
    kernels' (leaf) figures exclude them.  `cli.write_s` is the writers' own
    time, without the SVG emitter it calls.
    """
    own = tracer.self_times()
    total = tracer.totals()
    c = tracer.counts

    def per_round(x):
        return x / rounds

    def self_of(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix))

    kernel_s = total["kernels.forward"] + total["kernels.backward"]
    rk4_s = total["oracle.integrate"] + total["oracle.rk4_table"] + total["oracle.blowup"]
    grad_calls = [t1 - t0 for name, t0, t1, _, _ in tracer.spans
                  if name == "grad.loss_and_grad"]
    values = {
        "kernels.forward_s": per_round(total["kernels.forward"]),
        "kernels.backward_s": per_round(total["kernels.backward"]),
        "kernels.calls": per_round(c["kernels.calls"]),
        "kernels.elems": per_round(c["kernels.elems"]),
        "kernels.elems_per_s": c["kernels.elems"] / kernel_s if kernel_s else 0.0,
        "kernels.bytes_computed": per_round(c["kernels.bytes_computed"]),
        "network.forward_s": per_round(total["network.forward"]),
        "network.backward_s": per_round(total["network.backward"]),
        "network.self_s": per_round(self_of("network.")),
        "network.points": per_round(c["network.points"]),
        "network.gemm_flops_computed": per_round(c["network.gemm_flops_computed"]),
        "grad.calls": per_round(len(grad_calls)),
        "grad.s": per_round(total["grad.loss_and_grad"]),
        "grad.self_s": per_round(self_of("grad.")),
        "grad.call_us_p50": 1e6 * statistics.median(grad_calls) if grad_calls else 0.0,
        "optim.self_s": per_round(self_of("optim.")),
        "optim.adam_steps": per_round(c["optim.adam_steps"]),
        "optim.lbfgs_iters": per_round(c["optim.lbfgs_iters"]),
        "optim.line_search_evals": per_round(c["optim.line_search_evals"]),
        "optim.evals_to_1e-5": evals_to.get(1e-5, 0),
        "optim.evals_to_1e-8": evals_to.get(1e-8, 0),
        "oracle.shoot_s": per_round(total["oracle.shoot"]),
        "oracle.secant_iters": per_round(c["oracle.secant_iters"]),
        "oracle.blowup_s": per_round(total["oracle.blowup"]),
        "oracle.rk4_steps": per_round(c["oracle.rk4_steps"]),
        "oracle.rk4_steps_per_s": c["oracle.rk4_steps"] / rk4_s if rk4_s else 0.0,
        "analysis.compare_s": per_round(total["analysis.compare"]),
        "analysis.tabulate_s": per_round(total["analysis.tabulate"]),
        "analysis.rows": per_round(c["analysis.rows"]),
        "cli.write_s": per_round(own["cli.write"]),
        "cli.bytes_written": per_round(c["cli.bytes_written"]),
        "cli.load_checkpoint_s": per_round(total["cli.load_checkpoint"]),
        "cli.self_s": per_round(own["cli.main"]),
        "plotting.svg_s": per_round(total["plotting.svg"]),
        "plotting.svg_bytes": per_round(c["plotting.svg_bytes"]),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": per_round(len(tracer.spans)),
        "trace.overhead_computed_s": per_round(len(tracer.spans)) * span_cost(),
        "trace.layers_self_s": per_round(sum(v for k, v in own.items()
                                             if k != "cli.main")),
    }
    return values

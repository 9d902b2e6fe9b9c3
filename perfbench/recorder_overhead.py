"""Cost of the loss recorder that run.py wraps around
`blasius_pinn.optim.loss_and_grad` in every run, traced or not.

    python3 perfbench/recorder_overhead.py

Prints the recorder's own cost per call (around a function that does
nothing), the cost of one default loss+gradient evaluation, and what the
recorder adds to a default `train` run of 2,439 evaluations.
"""

import os
import statistics
import sys
import timeit
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from blasius_pinn.grad import loss_and_grad  # noqa: E402
from blasius_pinn.loss import CollocationGrid  # noqa: E402
from blasius_pinn.network import NetworkConfig, init_params  # noqa: E402
from run import Recorder  # noqa: E402

EVALS_PER_TRAIN = 2439


def main() -> None:
    p = init_params(NetworkConfig())
    grid = CollocationGrid(0.0, 8.0, 100)
    result = loss_and_grad(p, grid)

    # the recorder around a function that returns a ready result
    fake = types.SimpleNamespace(loss_and_grad=lambda *a: result)
    Recorder().record_loss(fake)
    n = 200_000
    bare = min(timeit.repeat(lambda: result, number=n, repeat=5)) / n
    wrapped = min(timeit.repeat(lambda: fake.loss_and_grad(p, grid), number=n, repeat=5)) / n
    per_call = wrapped - bare

    evals = [timeit.timeit(lambda: loss_and_grad(p, grid), number=20) / 20 for _ in range(15)]
    q1, med, q3 = statistics.quantiles(evals, n=4)
    print(f"recorder per call       {per_call * 1e6:.3f} us")
    print(f"loss_and_grad per call  {med * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f})")
    print(f"recorder share          {per_call / med:.2e}")
    print(f"recorder per train run  {per_call * EVALS_PER_TRAIN * 1e3:.3f} ms "
          f"over {EVALS_PER_TRAIN} evaluations")


if __name__ == "__main__":
    main()

"""Scalar-in, scalar-out fully connected network evaluated in jet arithmetic.

One forward pass over a batch of eta values yields f and its first three
eta-derivatives at each of them: the input enters as the jet (eta, 1, 0, 0),
and every layer maps its input jet by the same code, forward and in reverse.
Hidden layers use tanh; the output layer is purely affine so the network
can represent the linear far-field growth of the Blasius function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .textfmt import format_g17

CHECKPOINT_MAGIC = "blasius-pinn-checkpoint v1"
MAX_PARAMS = 10 ** 7       # larger networks are rejected before any allocation
MAX_WORKSPACE_BYTES = 2 * 2 ** 30   # jet workspace of one pass, checked where input is read


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture and PRNG seed: `depth` hidden layers of `width` neurons."""

    depth: int = 2
    width: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.param_count() > MAX_PARAMS:
            raise ValueError(f"depth and width give more than {MAX_PARAMS} parameters")

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer, input dim 1 to output dim 1."""
        dims = [1] + [self.width] * self.depth + [1]
        return list(zip(dims[:-1], dims[1:]))

    def param_count(self) -> int:
        # closed form of the sum over layer_shapes(), so that a checkpoint's
        # header is checked without building a list `depth` long
        w = self.width
        return 2 * w + (self.depth - 1) * (w * w + w) + w + 1


@dataclass
class ParamVector:
    """Flat parameter storage plus per-layer (fan_in, fan_out) metadata.

    Layout per layer: weight matrix row-major (fan_out x fan_in), then bias.
    """

    values: np.ndarray
    shapes: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        expected = sum(fi * fo + fo for fi, fo in self.shapes)
        if self.values.shape != (expected,):
            raise ValueError(
                f"parameter vector has {self.values.shape} entries, shapes require {expected}"
            )

    def __len__(self) -> int:
        return self.values.size

    def layers(self):
        """Yield (W, b) views into the flat vector; W is (fan_out, fan_in)."""
        return layer_views(self.values, self.shapes)


def layer_views(values: np.ndarray, shapes):
    """Yield each layer's (W, b) views along the last axis of a (..., P)
    array in ParamVector's layout: W is (..., fan_out, fan_in)."""
    lead = values.shape[:-1]
    off = 0
    for fi, fo in shapes:
        w = values[..., off : off + fi * fo].reshape(lead + (fo, fi))
        off += fi * fo
        yield w, values[..., off : off + fo]
        off += fo


def init_params(cfg: NetworkConfig) -> ParamVector:
    """Glorot-uniform weights, zero biases; bit-reproducible for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    chunks = []
    for fi, fo in cfg.layer_shapes():
        lim = np.sqrt(6.0 / (fi + fo))
        chunks.append(rng.uniform(-lim, lim, size=fi * fo))
        chunks.append(np.zeros(fo))
    return ParamVector(np.concatenate(chunks), cfg.layer_shapes())


def _jet(buf: np.ndarray, rows: int, n: int, cols: int) -> np.ndarray:
    """(rows, n, cols) view of the front of a flat workspace buffer."""
    return buf[: rows * n * cols].reshape(rows, n, cols)


class Workspace:
    """The jet buffers of forward_jet_batch and backward_jet_batch for one
    network's layer shapes and at most `n` points per call.

    It holds the input jets x = (eta, 1, 0, 0), every layer's pre-activation
    jets z (the reverse pass writes the hidden layers' adjoints over them),
    every hidden layer's tanh jets, the kernels' scratch rows and one
    adjoint jet.  Buffers are flat and are viewed at each call's point
    count, so a shorter batch (the last block of a tabulation) uses the
    front of each.

    The caller owns a workspace and reuses it: each call overwrites what the
    previous call wrote, and no jet buffer is allocated after construction.
    """

    def __init__(self, shapes, n: int):
        self.shapes = [tuple(s) for s in shapes]
        self.n = n
        hidden = max((fo for _, fo in self.shapes[:-1]), default=0)
        self.x = np.empty(4 * n)
        self.z = [np.empty(4 * n * fo) for _, fo in self.shapes]
        self.act = [np.empty(4 * n * fo) for _, fo in self.shapes[:-1]]
        self.scratch = np.empty(7 * n * hidden)
        self.abar = np.empty(4 * n * hidden)

    def check(self, p: ParamVector, n: int) -> None:
        if n > self.n or self.shapes != [tuple(s) for s in p.shapes]:
            raise ValueError(f"a workspace for {self.shapes} at {self.n} points "
                             f"cannot hold {p.shapes} at {n}")


def workspace_bytes(cfg: NetworkConfig, n: float) -> float:
    """Bytes of a Workspace for cfg's layer shapes at n points, in closed
    form.  Per point it holds four channels of the input jet, of every
    layer's z and of every hidden layer's tanh jet, and 7 scratch rows plus
    a 4-channel adjoint of the widest hidden layer."""
    dw = cfg.depth * cfg.width
    return 8 * n * (4 + 4 * (dw + 1) + 4 * dw + 11 * cfg.width)


def check_workspace(cfg: NetworkConfig, n: float, held: float = 0.0) -> None:
    """Raise ValueError if a workspace for n points of cfg's network, with
    `held` bytes of optimizer state beside it, would take more than
    MAX_WORKSPACE_BYTES.  n may be a float bound, inf included."""
    need = workspace_bytes(cfg, n)
    if not need + held <= MAX_WORKSPACE_BYTES:
        extra = f" and {held / 2 ** 30:.3g} GiB of optimizer state" if held else ""
        raise ValueError(f"{n:.0f} points of a depth-{cfg.depth}, width-{cfg.width} network "
                         f"need a {need / 2 ** 30:.3g} GiB jet workspace{extra}; at most "
                         f"{MAX_WORKSPACE_BYTES / 2 ** 30:g} GiB is allowed")


def _product(a: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ w over the 4 m stacked channel rows of a jet a (4, m, k), into
    `out` (4, m, j).  With k = 1 (a fan-in of 1 forward, a fan-out of 1 in
    reverse) each row scales w's one row: not a GEMM, and einsum forms it
    in about half the time of a broadcast np.multiply."""
    if w.shape[0] == 1:
        return np.einsum("cmk,kj->cmj", a, w, out=out)
    np.matmul(a.reshape(-1, w.shape[0]), w, out=out.reshape(-1, w.shape[1]))
    return out


def forward_jet_batch(p: ParamVector, etas: np.ndarray, *, ws: Workspace | None = None):
    """Vectorized jet forward pass over many eta values.

    Returns y of shape (4, n): rows are (f, f', f'', f''').  The input
    enters as the jet (eta, 1, 0, 0), and every layer maps its input jet
    alike.  Every intermediate is written into `ws`, where
    backward_jet_batch reads it; without one a temporary workspace is used.
    The returned y is a view into the workspace, valid only until the next
    call with the same `ws`.
    """
    etas = np.asarray(etas, dtype=np.float64).ravel()
    n = etas.size
    if ws is None:
        ws = Workspace(p.shapes, n)
    ws.check(p, n)
    a = _jet(ws.x, 4, n, 1)
    np.copyto(a[0, :, 0], etas)
    a[1] = 1.0
    a[2:] = 0.0
    layers = list(p.layers())
    # each layer's jet is w a + b, with the bias in the value channel only
    # (it is a constant jet); tanh follows each hidden layer, and ws.act has
    # one buffer for each
    for (w, b), zbuf, abuf in zip(layers, ws.z, ws.act):
        z = _product(a, w.T, _jet(zbuf, 4, n, w.shape[0]))
        z[0] += b
        a = _jet(abuf, 4, n, w.shape[0])
        kernels.tanh_jet_forward(z.reshape(4, -1), out=a.reshape(4, -1), scratch=ws.scratch)
    w, b = layers[-1]
    y = _product(a, w.T, _jet(ws.z[-1], 4, n, 1))[:, :, 0]
    y[0] += b
    return y


def backward_jet_batch(p: ParamVector, ws: Workspace, seeds: np.ndarray,
                       w: np.ndarray) -> np.ndarray:
    """J'w for the rows' Jacobian J, by one reverse pass over the forward
    pass at p that `ws` holds.

    Row k of J is d(sum(seeds[:, k] * y[:, k]))/d(params) at the k-th of
    the m = seeds.shape[1] points.  Each hidden layer's per-row adjoint is
    written over its pre-activation jet in ws.z, where row_gram reads it;
    the output jet is left as it is.  J'w is a fresh array.
    """
    m = seeds.shape[1]
    zbar = seeds.reshape(4, m, 1)
    for li, (weight, _) in reversed(list(enumerate(p.layers()))[1:]):
        fi = weight.shape[1]
        abar = _product(zbar, weight, _jet(ws.abar, 4, m, fi))
        # the kernel reads z in full before it writes the adjoint over it
        zbar = _jet(ws.z[li - 1], 4, m, fi)
        kernels.tanh_jet_backward(ws.act[li - 1][: m * fi], zbar.reshape(4, -1),
                                  abar.reshape(4, -1), out=zbar.reshape(4, -1), scratch=ws.scratch)
    return _jt(p, _factors(p, ws, seeds), w, ws.abar)


def _factors(p: ParamVector, ws: Workspace, seeds: np.ndarray):
    """Each layer's per-row adjoint (4, m, fo) and input jet (4, m, fi)
    after backward_jet_batch; the last layer's adjoint is the seeds."""
    m = seeds.shape[1]
    zbars = [_jet(z, 4, m, fo) for z, (_, fo) in zip(ws.z, p.shapes[:-1])]
    ins = [_jet(a, 4, m, fi) for a, (fi, _) in zip([ws.x, *ws.act], p.shapes)]
    return zip(zbars + [seeds.reshape(4, m, 1)], ins)


def _jt(p: ParamVector, factors, w: np.ndarray, scratch: np.ndarray):
    """J'w in ParamVector's layout from each layer's factors (z, a): w'z_0
    for the biases and (w * z)' a over the 4 m stacked channel rows for the
    weights, with w * z formed in `scratch`.  The factors are read at the
    call and not kept, so a map built on _jt (row_gram's jt) is valid while
    their buffers hold them; the returned array is fresh."""
    flat = np.empty(len(p))
    off = 0
    for (fi, fo), (z, a) in zip(p.shapes, factors):
        out = flat[off : off + fi * fo + fo]
        off += out.size
        wbar, bbar = out[: fi * fo].reshape(fo, fi), out[fi * fo :]
        np.matmul(w, z[0], out=bbar)
        wz = np.multiply(z, w[:, None], out=_jet(scratch, *z.shape))
        np.matmul(wz.reshape(-1, fo).T, a.reshape(-1, fi), out=wbar)
    return flat


def row_gram(p: ParamVector, ws: Workspace, seeds: np.ndarray):
    """G = J J' and the map w -> J'w for the rows' Jacobian J, without J
    and without a reverse pass: `ws` holds the per-row adjoints that
    backward_jet_batch(p, ws, seeds, ...) left in it.

    Row k of a layer's weight block is the sum over channels c of
    zbar[c, k] outer a[c, k], so its part of G is Z_0 Z_0' (the bias) plus
    the sum over channel pairs (c, d) of (Z_c Z_d') * (A_c A_d'),
    elementwise.  A layer with fan_in or fan_out 1 builds its m-row block
    of J for G instead.  The map is backward_jet_batch's own reduction
    (_jt over _factors): it reads `ws` in place and forms its products in
    ws.abar, so it is valid only until `ws` is next written.
    """
    m = seeds.shape[1]
    gram = np.zeros((m, m))
    prod, other = np.empty((2, m, m))
    for (fi, fo), (z, a) in zip(p.shapes, _factors(p, ws, seeds)):
        if fi == 1 or fo == 1:
            block = np.empty((m, fi * fo + fo))
            wrows, brows = next(layer_views(block, [(fi, fo)]))
            np.copyto(brows, z[0])
            # (m, fo, 4) @ (m, 4, fi): per row, the sum over the channels
            np.matmul(z.transpose(1, 2, 0), a.transpose(1, 0, 2), out=wrows)
            gram += np.matmul(block, block.T, out=prod)
            continue
        gram += np.matmul(z[0], z[0].T, out=prod)
        for c in range(4):
            for d in range(c, 4):
                np.matmul(z[c], z[d].T, out=prod)
                prod *= np.matmul(a[c], a[d].T, out=other)
                gram += prod
                if d > c:
                    gram += prod.T
    return gram, lambda w: _jt(p, _factors(p, ws, seeds), w, ws.abar)


def save_checkpoint(path, cfg: NetworkConfig, p: ParamVector) -> None:
    """Text checkpoint; 17 significant digits round-trips float64 exactly."""
    with open(path, "w") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{cfg.depth} {cfg.width} {cfg.seed}\n")
        fh.writelines(format_g17((p.values,), "\n"))


def load_checkpoint(path) -> tuple[NetworkConfig, ParamVector]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} file")
    if len(lines) < 2:
        raise ValueError(f"{path}: no 'depth width seed' line")
    depth, width, seed_ = (int(tok) for tok in lines[1].split())
    cfg = NetworkConfig(depth=depth, width=width, seed=seed_)
    values = np.array([float(s) for s in lines[2:] if s.strip()])
    if values.size != cfg.param_count():
        raise ValueError(
            f"{path}: expected {cfg.param_count()} parameters, found {values.size}"
        )
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite parameter")
    return cfg, ParamVector(values, cfg.layer_shapes())

"""Comparison of the trained network against the shooting oracle, plus the
negative-axis singularity probe."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grad import DivergenceError
from .loss import CollocationGrid, residual
from .network import NetworkConfig, ParamVector, forward_jet_batch
from .optim import AdamConfig, LbfgsConfig, TrainingReport, train
from .oracle import SolutionTable

TABULATE_BLOCK = 4096     # nodes per forward pass in tabulate
ONSET_STEP = 0.01         # eta spacing of the growth_onset lattices


@dataclass
class ComparisonReport:
    max_abs_err_f: float
    max_abs_err_fp: float
    max_abs_err_fpp: float
    rms_err_f: float
    wall_curvature_pinn: float
    wall_curvature_oracle: float
    eta99_pinn: float
    eta99_oracle: float


def eta99(eta: np.ndarray, fp: np.ndarray) -> float:
    """First eta where f' reaches 0.99, linearly interpolated between rows;
    nan if f' never reaches 0.99 on the given grid."""
    above = np.nonzero(fp >= 0.99)[0]
    if above.size == 0:
        return float("nan")
    i = int(above[0])
    if i == 0:
        return float(eta[0])
    frac = (0.99 - fp[i - 1]) / (fp[i] - fp[i - 1])
    return float(eta[i - 1] + frac * (eta[i] - eta[i - 1]))


def tabulate(p: ParamVector, etas: np.ndarray) -> SolutionTable:
    """Evaluate the network on a grid as a SolutionTable (with residuals).

    The forward pass runs over blocks of TABULATE_BLOCK nodes, so its
    working memory does not grow with the table.  Raises DivergenceError if
    any of f, f', f'' or the residual is not finite.
    """
    etas = np.asarray(etas, dtype=float)
    y = np.empty((4, etas.size))
    for lo in range(0, etas.size, TABULATE_BLOCK):
        y[:, lo : lo + TABULATE_BLOCK] = forward_jet_batch(p, etas[lo : lo + TABULATE_BLOCK])
    res = residual(y)
    if not (np.isfinite(y[:3]).all() and np.isfinite(res).all()):
        raise DivergenceError("network output is not finite on the tabulation grid")
    return SolutionTable(etas, y[0], y[1], y[2], res)


def compare_tables(pred: SolutionTable, oracle: SolutionTable,
                   wall_curvature_pred: float | None = None) -> ComparisonReport:
    """Errors of a predicted table against an oracle table on shared nodes."""
    if pred.eta.shape != oracle.eta.shape or not np.array_equal(pred.eta, oracle.eta):
        raise ValueError("prediction and oracle tables cover different eta grids")
    err_f = np.abs(pred.f - oracle.f)
    if wall_curvature_pred is None:
        wall_curvature_pred = float(pred.fpp[0])
    return ComparisonReport(
        max_abs_err_f=float(err_f.max()),
        max_abs_err_fp=float(np.abs(pred.fp - oracle.fp).max()),
        max_abs_err_fpp=float(np.abs(pred.fpp - oracle.fpp).max()),
        rms_err_f=float(np.sqrt(np.mean(err_f ** 2))),
        wall_curvature_pinn=wall_curvature_pred,
        wall_curvature_oracle=float(oracle.fpp[0]),
        eta99_pinn=eta99(pred.eta, pred.fp),
        eta99_oracle=eta99(oracle.eta, oracle.fp),
    )


def compare(p: ParamVector, oracle: SolutionTable) -> ComparisonReport:
    """Sup/RMS errors of the network against an oracle table on its nodes."""
    pred = tabulate(p, oracle.eta)
    wall = forward_jet_batch(p, np.array([0.0]))
    return compare_tables(pred, oracle, wall_curvature_pred=float(wall[2, 0]))


@dataclass
class SingularityReport:
    pin_value: float            # wall curvature carried over from the standard run
    max_abs_f_edge: float       # max |f| on [eta0, max(eta0, -5.5)]
    max_abs_residual_edge: float
    onset_eta: float | None     # largest eta where |f'''| > 100x its median on [0,5]
    median_fppp: float
    pole_eta: float | None      # pole estimate from f at eta0, see pole_from_profile
    final_loss: float
    converged: bool             # L-BFGS met its gradient tolerance
    report: TrainingReport


def onset_from_profile(scan_eta: np.ndarray, scan_fppp: np.ndarray,
                       ref_fppp: np.ndarray) -> tuple[float | None, float]:
    """Largest eta where |f'''| exceeds 100x its median over the reference
    samples.  The threshold is relative to the median, so rescaling every
    |f'''| sample by a positive constant leaves the onset unchanged."""
    med = float(np.median(np.abs(ref_fppp)))
    hot = np.abs(scan_fppp) > 100.0 * med
    if not hot.any():
        return None, med
    return float(scan_eta[np.nonzero(hot)[0][-1]]), med


def pole_from_profile(eta: np.ndarray, f: np.ndarray) -> float | None:
    """Singularity of the analytic continuation, from the leftmost sample.

    Near the pole the Blasius function follows its leading Laurent term
    f ~ 6/(eta - eta_s), so eta_s ~ eta0 - 6/f(eta0) at the leftmost sample
    eta0.  Returns None unless f(eta0) is finite and positive, i.e. unless f
    grows toward the left as it does ahead of the pole.
    """
    i = int(np.argmin(eta))
    f0 = float(f[i])
    if not (np.isfinite(f0) and f0 > 0.0):
        return None
    return float(eta[i]) - 6.0 / f0


def growth_onset(p: ParamVector, eta_lo: float, eta_hi: float) -> tuple[float | None, float]:
    """Rapid-growth onset of the network's f''' on [eta_lo, eta_hi]."""
    ref = np.arange(0.0, 5.0 + ONSET_STEP / 2, ONSET_STEP)
    y_ref = forward_jet_batch(p, ref)
    scan = np.arange(eta_lo, eta_hi + ONSET_STEP / 2, ONSET_STEP)
    y = forward_jet_batch(p, scan)
    return onset_from_profile(scan, y[3], y_ref[3])


def probe_negative(
    p_prev: ParamVector,
    cfg_net: NetworkConfig,
    cfg_adam: AdamConfig,
    cfg_lbfgs: LbfgsConfig,
    grid: CollocationGrid,
) -> tuple[ParamVector, SingularityReport]:
    """Retrain on the extended grid with the wall curvature pinned.

    The pin value c = f''(0) comes from the converged standard run; the wall
    conditions stay at eta = 0 and the far-field condition at grid.eta_m.
    On a grid that reaches the pole the residual cannot be met; on one that
    stops short of it, such as eta0 = -4.5, the fit can meet the residual
    and pole_eta still locates the pole.
    """
    wall = forward_jet_batch(p_prev, np.array([0.0]))
    c = float(wall[2, 0])
    p_ext, report = train(cfg_net, cfg_adam, cfg_lbfgs, grid, pin=c)

    edge = np.arange(grid.eta0, max(grid.eta0, -5.5) + 1e-12, 0.005)
    y_edge = forward_jet_batch(p_ext, edge)
    onset, med = growth_onset(p_ext, grid.eta0, grid.eta_m)
    sing = SingularityReport(
        pin_value=c,
        max_abs_f_edge=float(np.abs(y_edge[0]).max()),
        max_abs_residual_edge=float(np.abs(residual(y_edge)).max()),
        onset_eta=onset,
        median_fppp=med,
        pole_eta=pole_from_profile(edge, y_edge[0]),
        final_loss=report.final.total,
        converged=report.lbfgs_status == "converged",
        report=report,
    )
    return p_ext, sing

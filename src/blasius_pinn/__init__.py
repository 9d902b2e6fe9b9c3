"""Physics-informed neural network solver for the Blasius boundary layer.

The package trains a small fully connected network to satisfy
f''' + 1/2 f f'' = 0 with f(0)=0, f'(0)=0, f'(eta_m)=1, carrying exact
first/second/third derivatives through the network with truncated Taylor
jets.  A classical RK4 shooting solver serves as ground truth, and a
negative-axis probe locates the singularity of the analytic continuation.
"""

from .network import NetworkConfig, ParamVector, Workspace, init_params, forward_jet_batch
from .loss import CollocationGrid, LossBreakdown, residual, residual_rows, loss_total
from .grad import GradResult, loss_and_grad, DivergenceError
from .optim import AdamConfig, AdamState, adam_step, LbfgsConfig, lbfgs_minimize, TrainingReport, train
from .oracle import SolutionTable, ShootingResult, rk4_shoot, shoot, backward_blowup
from .analysis import ComparisonReport, SingularityReport, compare, probe_negative

__version__ = "0.1.0"

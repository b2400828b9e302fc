"""Quasi-stationary analysis of finite absorbed Markov chains.

Core objects: a killed transition kernel (:class:`SubStochasticKernel`),
its spectral triple (quasi-stationary law alpha, survival eigenvalue rho,
survival capacity eta, tilted invariant law beta), the conditioned-forever
chain obtained by h-transform, exact conditional time-averages, seeded
Monte Carlo estimation, and empirical certificates for the exponential
convergence bounds tying all of these together.
"""

from .converse import ContractionReport, certify_converse
from .deflation import Deflation
from .ergodic import SamplingPlan, conditional_functional, verify_ergodic_theorem
from .estimator import (
    ExtinctionError,
    SweepRow,
    TrajectoryBatch,
    estimate_beta,
    simulate,
    sweep_error_vs_N,
)
from .kernels import (
    HorizonTooLarge,
    SubStochasticKernel,
    conditioned_evolve,
    read_kernel,
    write_kernel,
)
from .models import ModelSpec, build
from .qprocess import (
    BoundReport,
    build_q_kernel,
    fitted_rates,
    q_mixing_report,
    verify_eta_bound,
    verify_qproc_approx,
)
from .spectral import PowerIterationError, SpectralTriple, compute_spectral

__version__ = "0.1.0"

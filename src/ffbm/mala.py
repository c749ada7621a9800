"""Metropolis-adjusted Langevin sampler for the feature-weight posterior.

Proposals drift down the objective gradient with injected Gaussian noise,
theta' = theta - h grad U(theta) + sqrt(2h) xi, and every proposal passes
through the exact Metropolis-Hastings correction (no unadjusted Langevin
shortcut).  The step size follows a polynomially decaying schedule
h_t = (250 s / n) (1000 + t)^(-0.8), which keeps late-chain acceptance
high while early steps move fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import check_retention, retained_indices
from .softmax import ObjectiveContext, objective_and_gradient

# The step-size schedule's offset and decay exponent.
SCHEDULE_OFFSET = 1000.0
SCHEDULE_DECAY = 0.8


@dataclass
class WeightChainConfig:
    """Hyperparameters of the weight sampler."""

    iterations: int = 10000
    burn_in: float = 0.4
    thinning: int = 10
    sigma: float = 1.0
    step_scale: float = 0.05
    seed: object = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("prior standard deviation must be positive")
        if self.step_scale <= 0:
            raise ValueError("step-size scaling must be positive")
        check_retention(self.iterations, self.burn_in, self.thinning)


@dataclass
class WeightChainResult:
    samples: list  # retained B x D weight matrices
    retained: list
    u_trace: np.ndarray  # objective after each iteration, incl. the initial draw
    acceptance_ratio: float
    mean_objective: float = field(default=math.nan)  # mean U over iterations 1..T
    accepted: np.ndarray = field(default=None, repr=False)  # per-iteration flags


def step_size(t: int, cfg: WeightChainConfig, num_points: int) -> float:
    """Annealed step size at iteration t for a context of num_points vertices."""
    if num_points < 1:
        raise ValueError("context must contain at least one vertex")
    alpha = 250.0 * cfg.step_scale / num_points
    return alpha * (SCHEDULE_OFFSET + t) ** (-SCHEDULE_DECAY)


def proposal_log_density(frm: np.ndarray, to: np.ndarray, grad_frm: np.ndarray, step: float) -> float:
    """log q(frm -> to) up to the additive constant shared by both directions."""
    if step <= 0:
        raise ValueError("step size must be positive")
    drift = to - frm + step * grad_frm
    return -float(np.vdot(drift, drift)) / (4.0 * step)


def _log_alpha(current, u_cur, proposal, u_prop, grad_prop, log_fwd, step) -> float:
    """log Metropolis-Hastings ratio of current -> proposal; log_fwd is log q(current -> proposal)."""
    return u_cur - u_prop + proposal_log_density(proposal, current, grad_prop, step) - log_fwd


def accept_log_prob(current: np.ndarray, proposal: np.ndarray, ctx: ObjectiveContext, step: float) -> float:
    """log of the Metropolis-Hastings acceptance probability of the proposal."""
    u_cur, grad_cur = objective_and_gradient(current, ctx)
    u_prop, grad_prop = objective_and_gradient(proposal, ctx)
    log_fwd = proposal_log_density(current, proposal, grad_cur, step)
    return min(0.0, _log_alpha(current, u_cur, proposal, u_prop, grad_prop, log_fwd, step))


def run_weight_chain(ctx: ObjectiveContext, cfg: WeightChainConfig) -> WeightChainResult:
    """Sample the weight posterior; the initial state is a prior draw.

    U is checked where the chain's value changes: a non-finite U at the
    initial draw or at an accepted proposal, or a NaN proposal U, raises
    ArithmeticError naming the iteration.  A proposal with U = +inf is an
    ordinary rejection.
    """
    steps = [step_size(t, cfg, ctx.size) for t in range(cfg.iterations)]
    rng = np.random.default_rng(cfg.seed)
    shape = (ctx.num_blocks, ctx.num_features)
    weights = rng.normal(0.0, cfg.sigma, shape)
    value, grad = objective_and_gradient(weights, ctx)
    if not math.isfinite(value):
        raise ArithmeticError(f"weight-chain objective is {value} at the initial draw")

    keep = retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning)
    keep_set = frozenset(keep)
    trace = np.empty(cfg.iterations + 1)
    trace[0] = value
    # No state is modified in place (an accepted proposal replaces it), so
    # the samples can hold the chain's own arrays.
    samples = [weights] if 0 in keep_set else []

    accepted = np.zeros(cfg.iterations, dtype=bool)
    for t, h in enumerate(steps):
        noise = rng.standard_normal(shape)
        proposal = weights - h * grad + math.sqrt(2.0 * h) * noise
        prop_value, prop_grad = objective_and_gradient(proposal, ctx)
        if math.isnan(prop_value):
            raise ArithmeticError(f"weight-chain objective is nan at the proposal of iteration {t + 1}")
        # Forward density shortcut: the drift residual is exactly the noise.
        log_fwd = -float(np.vdot(noise, noise)) / 2.0
        log_alpha = _log_alpha(weights, value, proposal, prop_value, prop_grad, log_fwd, h)
        if log_alpha >= 0.0 or rng.random() < math.exp(log_alpha):
            if not math.isfinite(prop_value):
                raise ArithmeticError(f"weight-chain objective is {prop_value} at iteration {t + 1}")
            weights, value, grad = proposal, prop_value, prop_grad
            accepted[t] = True
        trace[t + 1] = value
        if t + 1 in keep_set:
            samples.append(weights)

    return WeightChainResult(
        samples=samples,
        retained=keep,
        u_trace=trace,
        acceptance_ratio=float(accepted.sum()) / cfg.iterations,
        mean_objective=float(trace[1:].mean()),
        accepted=accepted,
    )

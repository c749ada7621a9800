"""Metropolis-adjusted Langevin sampler for the feature-weight posterior.

Proposals drift down the objective gradient with injected Gaussian noise,
theta' = theta - h grad U(theta) + sqrt(2h) xi, and every proposal passes
through the exact Metropolis-Hastings correction (no unadjusted Langevin
shortcut).  The step size follows a polynomially decaying schedule
h_t = (250 s / n) (1000 + t)^(-0.8), which keeps late-chain acceptance
high while early steps move fast.

run_weight_chains runs independent chains in lockstep: chains of one
context shape and schedule form an S x B x D stack, and each numpy call of
an iteration (the proposal, softmax.objective_kernel and _log_densities)
serves the whole stack.  Each chain draws from its own generator exactly as
it would alone, and the MH decision and the U checks stay scalar per chain,
so every chain gives the bytes of a lone run.  run_weight_chain,
proposal_log_density and objective_and_gradient are the one-chain calls of
that code.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .sampling import check_retention, retained_indices
from .softmax import ObjectiveContext, dot_views, objective_and_gradient, objective_kernel, stack_views

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


@dataclass(eq=False)
class WeightChainResult:
    samples: np.ndarray  # retained K x B x D weight matrices, a view of one buffer per stack
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


class WeightChainError(ArithmeticError):
    """A non-finite objective in one weight chain; chain is its index in run_weight_chains' input."""

    def __init__(self, message, chain=0):
        super().__init__(message)
        self.chain = chain


def _log_densities(frm, to, grad_frm, step, drift=None, scaled=None, views=None, norms=None) -> list:
    """log q(frm -> to) of every slice of S x B x D stacks, as a list of S
    floats, up to the additive constant shared by both directions.

    The squared norm of each slice's drift residual to - frm + step grad_frm
    is a matmul of its dot_views, so slice s gets the bits of np.vdot on that
    slice alone.  The chain passes buffers bound once: drift and scaled
    (S x B x D), the views of a stack whose first S slices are drift, and
    the norms the matmul writes, which may hold further products (the
    chain's noise).  Without them each array is allocated.
    """
    drift = np.subtract(to, frm, drift)
    np.add(drift, np.multiply(grad_frm, step, scaled), drift)
    rows, cols = views or dot_views(drift)
    norms = np.matmul(rows, cols, norms)
    return [-x / (4.0 * step) for x in norms.ravel().tolist()[:len(drift)]]


def proposal_log_density(frm: np.ndarray, to: np.ndarray, grad_frm: np.ndarray, step: float):
    """log q(frm -> to) up to the additive constant shared by both directions.

    A state of two or fewer dimensions (a B x D matrix, or a vector) gives a
    float; a stack of B x D states gives an array with one value per state.
    It is the one-call use of the chain's _log_densities.
    """
    if step <= 0:
        raise ValueError("step size must be positive")
    frm, to, grad_frm = (np.asarray(a, dtype=np.float64) for a in (frm, to, grad_frm))
    lead, state = (frm.shape[:-2], frm.shape[-2:]) if frm.ndim >= 2 else ((), (1, frm.size))
    shape = (math.prod(lead),) + state
    values = _log_densities(frm.reshape(shape), to.reshape(shape), grad_frm.reshape(shape), step)
    return values[0] if not lead else np.array(values).reshape(lead)


def _log_alpha(u_cur, u_prop, log_rev, log_fwd) -> float:
    """log Metropolis-Hastings ratio of current -> proposal from the two
    objectives and the proposal densities log q(proposal -> current), log q(current -> proposal)."""
    return u_cur - u_prop + log_rev - log_fwd


def accept_log_prob(current: np.ndarray, proposal: np.ndarray, ctx: ObjectiveContext, step: float) -> float:
    """log of the Metropolis-Hastings acceptance probability of the proposal."""
    u_cur, grad_cur = objective_and_gradient(current, ctx)
    u_prop, grad_prop = objective_and_gradient(proposal, ctx)
    log_fwd = proposal_log_density(current, proposal, grad_cur, step)
    log_rev = proposal_log_density(proposal, current, grad_prop, step)
    return min(0.0, _log_alpha(u_cur, u_prop, log_rev, log_fwd))


def run_weight_chain(ctx: ObjectiveContext, cfg: WeightChainConfig) -> WeightChainResult:
    """Sample the weight posterior; the initial state is a prior draw.

    The one-chain call of run_weight_chains.
    """
    return run_weight_chains([ctx], [cfg])[0]


def run_weight_chains(ctxs, cfgs) -> list:
    """Run independent weight chains in lockstep; result s is chain s run alone.

    Chains whose contexts share the shape (U, B, D) and the vertex count,
    and whose configs share the schedule (iterations, burn_in, thinning,
    step_scale), form one stack; each stack runs one loop, and every numpy
    call of an iteration serves all its chains.  Each chain keeps its own
    generator and draws from it exactly as alone, so chain s gives the same
    bytes whatever runs beside it.

    A chain's prior width is set twice, as ctx.sigma for the objective and
    cfg.sigma for the initial draw; a chain whose two differ raises
    ValueError before any chain draws.  U is checked where a chain's value
    changes: a non-finite U at the initial draw or at an accepted proposal,
    or a NaN proposal U, raises WeightChainError naming the iteration, with
    chain set to the index in ctxs of the first chain to fail.  A proposal
    with U = +inf is an ordinary rejection.
    """
    if len(ctxs) != len(cfgs):
        raise ValueError(f"{len(ctxs)} contexts but {len(cfgs)} chain configs")
    stacks = {}
    for s, (ctx, cfg) in enumerate(zip(ctxs, cfgs)):
        if cfg.sigma != ctx.sigma:
            raise ValueError(f"weight chain {s}: the context's prior width sigma={ctx.sigma!r} "
                             f"differs from its config's sigma={cfg.sigma!r}")
        key = (ctx.rows.shape[0], ctx.num_blocks, ctx.num_features, ctx.size,
               cfg.iterations, cfg.burn_in, cfg.thinning, cfg.step_scale)
        stacks.setdefault(key, []).append(s)
    results = [None] * len(ctxs)
    for members in stacks.values():
        stack = _run_stack([ctxs[s] for s in members], [cfgs[s] for s in members], members)
        for s, result in zip(members, stack):
            results[s] = result
    return results


def _run_stack(ctxs, cfgs, labels) -> list:
    """The lockstep loop over chains of one shape and schedule; labels name them in errors."""
    ctx, cfg = ctxs[0], cfgs[0]
    steps = [step_size(t, cfg, ctx.size) for t in range(cfg.iterations)]
    size, shape = len(ctxs), (len(ctxs), ctx.num_blocks, ctx.num_features)
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    evaluate = objective_kernel(ctxs)
    # The drift and the noise share one buffer, so that one matmul of its
    # dot_views gives the squared norms of both.
    residuals = np.zeros((2,) + shape)
    drift, noise = residuals
    density_views = dot_views(residuals.reshape((2 * size,) + shape[1:]))
    norms = np.empty((2 * size, 1, 1))
    noise_norms = norms[size:]
    state = stack_views(np.stack([rng.normal(0.0, c.sigma, shape[1:]) for rng, c in zip(rngs, cfgs)]))
    weights, grad = state[0], np.empty(shape)
    values = evaluate(state, grad)
    for label, u in zip(labels, values):
        if not math.isfinite(u):
            raise WeightChainError(f"weight-chain objective is {u} at the initial draw", label)

    # Two buffers, the states and the proposals: accepted proposals are
    # copied into the states, or the two swap when every chain accepts.
    trial = stack_views(np.empty(shape))
    proposal, prop_grad = trial[0], np.empty(shape)
    scaled = np.empty(shape)  # the proposal's noise term, then the densities' gradient term
    draws = [(rng.standard_normal, out) for rng, out in zip(rngs, noise)]
    chains = list(zip(labels, [rng.random for rng in rngs]))
    keep = retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning)
    slots = {t: k for k, t in enumerate(keep)}
    kept = np.empty((size, len(keep)) + shape[1:])  # chain s's samples are kept[s]
    if 0 in slots:
        kept[:, 0] = weights
    # Row-major (iteration, chain) records, 8 and 1 bytes an entry.
    trace, accepted = array("d", values), bytearray()

    add, subtract, multiply = np.add, np.subtract, np.multiply

    for t, h in enumerate(steps):
        for draw, out in draws:
            draw(out=out)
        multiply(grad, h, proposal)
        subtract(weights, proposal, proposal)
        multiply(noise, math.sqrt(2.0 * h), scaled)
        add(proposal, scaled, proposal)
        prop_values = evaluate(trial, prop_grad)
        # The reverse move's density, and the forward move's from its noise.
        log_revs = _log_densities(proposal, weights, prop_grad, h, drift, scaled, density_views, norms)
        log_fwds = [-x / 2.0 for x in noise_norms.ravel().tolist()]
        flags, moved = [], 0
        for (label, uniform), u, u_prop, log_rev, log_fwd in zip(
                chains, values, prop_values, log_revs, log_fwds):
            if math.isnan(u_prop):
                raise WeightChainError(
                    f"weight-chain objective is nan at the proposal of iteration {t + 1}", label)
            log_alpha = _log_alpha(u, u_prop, log_rev, log_fwd)
            accept = log_alpha >= 0.0 or uniform() < math.exp(log_alpha)
            if accept and not math.isfinite(u_prop):
                raise WeightChainError(f"weight-chain objective is {u_prop} at iteration {t + 1}", label)
            flags.append(accept)
            moved += accept
        if moved == size:
            state, trial = trial, state
            weights, proposal = state[0], trial[0]
            grad, prop_grad = prop_grad, grad
            values = prop_values
        elif moved:
            values = [b if a else u for a, u, b in zip(flags, values, prop_values)]
            mask = np.array(flags)[:, None, None]
            np.copyto(weights, proposal, where=mask)
            np.copyto(grad, prop_grad, where=mask)
        trace.extend(values)
        accepted.extend(flags)
        k = slots.get(t + 1)
        if k is not None:
            kept[:, k] = weights

    trace = np.frombuffer(trace, dtype=np.float64).reshape(-1, size)
    accepted = np.frombuffer(accepted, dtype=np.bool_).reshape(-1, size)
    results = []
    for s in range(size):
        u_trace, flags = trace[:, s].copy(), accepted[:, s].copy()
        results.append(WeightChainResult(
            samples=kept[s],
            retained=list(keep),
            u_trace=u_trace,
            acceptance_ratio=float(flags.sum()) / cfg.iterations,
            mean_objective=float(u_trace[1:].mean()),
            accepted=flags,
        ))
    return results

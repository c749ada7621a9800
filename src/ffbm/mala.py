"""Metropolis-adjusted Langevin sampler for the feature-weight posterior.

Proposals drift down the objective gradient with injected Gaussian noise,
theta' = theta - h grad U(theta) + sqrt(2h) xi, and every proposal passes
through the exact Metropolis-Hastings correction (no unadjusted Langevin
shortcut).  The step size follows a polynomially decaying schedule
h_t = (250 s / n) (1000 + t)^(-0.8), which keeps late-chain acceptance
high while early steps move fast.

A chain draws its initial state from np.random.default_rng(seed) and then
reads two streams of its own (_chain_generators): iteration t takes the
B*D normals tBD .. (t+1)BD - 1 of its noise stream and uniform t of its
accept stream, which it reads whether the MH test needs it or not.  Both
are drawn in chunks of _CHUNK iterations, with one call per stream, and a
chain's bytes do not depend on the chunk length.

run_weight_chains runs independent chains in lockstep: chains of one
context shape and schedule form an S x B x D stack, and each numpy call of
an iteration (the proposal, softmax.objective_kernel and _log_densities)
serves the whole stack; once per chunk, one multiply scales the stack's
noise and one matmul gives its forward densities.  Each chain reads only
its own streams, and the MH decision and the U checks stay scalar per
chain, so every chain gives the bytes of a lone run.  run_weight_chain,
proposal_log_density and objective_and_gradient are the one-chain calls of
that code.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .sampling import check_retention, retained_indices
from .softmax import (
    ObjectiveContext,
    check_sigma,
    dot_views,
    objective_and_gradient,
    objective_kernel,
    stack_views,
)

# The step-size schedule's offset and decay exponent.
SCHEDULE_OFFSET = 1000.0
SCHEDULE_DECAY = 0.8

# The largest step-size scaling a chain accepts; see WeightChainConfig.
MAX_STEP_SCALE = 1e6

# Iterations of noise and uniforms a chain draws at a time, capped so that
# a chunk holds at most _CHUNK_FLOATS normals per chain.
_CHUNK = 256
_CHUNK_FLOATS = 2 ** 14


@dataclass
class WeightChainConfig:
    """Hyperparameters of the weight sampler.

    step_scale is the s of the step-size schedule, refused unless
    0 < s <= MAX_STEP_SCALE.  The schedule already divides by the context's
    vertex count, so s = O(1) is the useful range at any N.  The first step
    on a one-vertex context is about s, the largest step any chain takes;
    far above the cap the proposal densities overflow (on polbooks at
    s = 1e150) and every proposal is rejected with a numpy warning.
    """

    iterations: int = 10000
    burn_in: float = 0.4
    thinning: int = 10
    sigma: float = 1.0
    step_scale: float = 0.05
    seed: object = 0  # a SeedSequence, or an entropy value it takes (an int, a list of ints)

    def __post_init__(self):
        check_sigma(self.sigma)
        if not (0 < self.step_scale <= MAX_STEP_SCALE):
            raise ValueError(f"step-size scaling must be positive and finite, and at most "
                             f"{MAX_STEP_SCALE:g}, got {self.step_scale}")
        check_retention(self.iterations, self.burn_in, self.thinning)


@dataclass(eq=False)
class WeightChainResult:
    samples: np.ndarray  # retained K x B x D weight matrices, a view of one buffer per stack
    retained: list
    u_trace: np.ndarray  # objective after each iteration, incl. the initial draw
    acceptance_ratio: float
    mean_objective: float  # mean U over iterations 1..T
    accepted: np.ndarray = field(repr=False)  # per-iteration flags


def step_size(t: int, cfg: WeightChainConfig, num_points: int) -> float:
    """Annealed step size at iteration t for a context of num_points vertices."""
    if num_points < 1:
        raise ValueError("context must contain at least one vertex")
    alpha = 250.0 * cfg.step_scale / num_points
    return alpha * (SCHEDULE_OFFSET + t) ** (-SCHEDULE_DECAY)


class WeightChainError(ArithmeticError):
    """A non-finite objective in one weight chain; chain is its index in run_weight_chains' input."""

    def __init__(self, message, chain):
        super().__init__(message)
        self.chain = chain

    def __reduce__(self):
        # A --jobs worker pickles the error back; the default rebuilds it from args alone.
        return type(self), (*self.args, self.chain)


def _log_densities(frm, to, grad_frm, step, drift=None, scaled=None, views=None, norms=None) -> list:
    """log q(frm -> to) of every slice of S x B x D stacks, as a list of S
    floats, up to the additive constant shared by both directions.

    The squared norm of each slice's drift residual to - frm + step grad_frm
    is a matmul of its dot_views, so slice s gets the bits of np.vdot on that
    slice alone.  The chain passes buffers bound once: drift and scaled
    (S x B x D), the dot_views of drift, and the S x 1 x 1 norms the matmul
    writes.  Without them each array is allocated.
    """
    drift = np.subtract(to, frm, drift)
    np.add(drift, np.multiply(grad_frm, step, scaled), drift)
    rows, cols = views or dot_views(drift)
    norms = np.matmul(rows, cols, norms)
    return [-x / (4.0 * step) for x in norms.ravel().tolist()]


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
    generators and draws from them exactly as alone, so chain s gives the
    same bytes whatever runs beside it.

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


def _chain_generators(seed) -> tuple:
    """A chain's three generators: its initial draw, its noise stream and its accept stream.

    The first is np.random.default_rng(seed); the other two are seeded by
    children 0 and 1 of seed's SeedSequence (seed itself when it is one,
    else SeedSequence(seed)), the two that seed.spawn(2) would give first.
    They are built without calling spawn, which counts its calls on the
    seed, so one seed gives the same chain however often it runs.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = (np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (k,), pool_size=seq.pool_size)
                for k in (0, 1))
    return (np.random.default_rng(seq),) + tuple(np.random.default_rng(child) for child in children)


def _run_stack(ctxs, cfgs, labels) -> list:
    """The lockstep loop over chains of one shape and schedule; labels name them in errors."""
    ctx, cfg = ctxs[0], cfgs[0]
    steps = [step_size(t, cfg, ctx.size) for t in range(cfg.iterations)]
    size, shape = len(ctxs), (len(ctxs), ctx.num_blocks, ctx.num_features)
    generators = [_chain_generators(c.seed) for c in cfgs]
    evaluate = objective_kernel(ctxs)
    drift = np.empty(shape)
    density_views, norms = dot_views(drift), np.empty((size, 1, 1))
    state = stack_views(np.stack([initial.normal(0.0, c.sigma, shape[1:])
                                  for (initial, _, _), c in zip(generators, cfgs)]))
    weights, grad = state[0], np.empty(shape)
    values = evaluate(state, grad)
    for label, u in zip(labels, values):
        if not math.isfinite(u):
            raise WeightChainError(f"weight-chain objective is {u} at the initial draw", label)

    # Two buffers, the states and the proposals: accepted proposals are
    # copied into the states, or the two swap when every chain accepts.
    trial = stack_views(np.empty(shape))
    proposal, prop_grad = trial[0], np.empty(shape)
    scaled = np.empty(shape)  # the densities' gradient term
    chunk = max(1, min(_CHUNK, _CHUNK_FLOATS // max(1, shape[1] * shape[2])))
    keep = retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning)
    slots = {t: k for k, t in enumerate(keep)}
    kept = np.empty((size, len(keep)) + shape[1:])  # chain s's samples are kept[s]
    if 0 in slots:
        kept[:, 0] = weights
    # Row-major (iteration, chain) records, 8 and 1 bytes an entry.
    trace, accepted = array("d", values), bytearray()

    add, subtract, multiply = np.add, np.subtract, np.multiply

    for start in range(0, cfg.iterations, chunk):
        # Each chain's noise and uniforms for the chunk's iterations, one
        # call per stream, then the forward densities -|xi|^2 / 2 from one
        # matmul, before the noise is scaled by sqrt(2 h_t) in place.
        hs = steps[start:start + chunk]
        noise, uniforms = np.empty((size, len(hs)) + shape[1:]), np.empty((size, len(hs)))
        for (_, normal, uniform), xi, row in zip(generators, noise, uniforms):
            normal.standard_normal(out=xi)
            uniform.random(out=row)
        rows, cols = dot_views(noise.reshape((size * len(hs),) + shape[1:]))
        fwd_chunk = (np.matmul(rows, cols).reshape(size, -1) / -2.0).T.tolist()
        multiply(noise, np.sqrt(np.multiply(2.0, hs))[:, None, None], noise)
        for t, (h, xi, log_fwds, draws) in enumerate(
                zip(hs, noise.swapaxes(0, 1), fwd_chunk, uniforms.T.tolist()), start + 1):
            multiply(grad, h, proposal)
            subtract(weights, proposal, proposal)
            add(proposal, xi, proposal)
            prop_values = evaluate(trial, prop_grad)
            log_revs = _log_densities(proposal, weights, prop_grad, h, drift, scaled, density_views, norms)
            flags, moved = [], 0
            for label, u, u_prop, log_rev, log_fwd, draw in zip(
                    labels, values, prop_values, log_revs, log_fwds, draws):
                if math.isnan(u_prop):
                    raise WeightChainError(
                        f"weight-chain objective is nan at the proposal of iteration {t}", label)
                log_alpha = _log_alpha(u, u_prop, log_rev, log_fwd)
                accept = log_alpha >= 0.0 or draw < math.exp(log_alpha)
                if accept and not math.isfinite(u_prop):
                    raise WeightChainError(f"weight-chain objective is {u_prop} at iteration {t}", label)
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
            k = slots.get(t)
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

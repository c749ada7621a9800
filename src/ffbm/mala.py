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
context shape and schedule form an S x B x D stack, and each numpy call
serves the whole stack; once per chunk, one multiply scales the stack's
noise and one matmul gives its forward densities.  A stack computes blocks
of iterations ahead of their MH tests, as if every chain accepted every
proposal: each proposal is made from the one before, with only its
gradient.  Once per block, the value half of softmax.objective_halves and
_drift_norms give the block's objectives and reverse densities, _decide
settles the tests in iteration order up to the first rejection, and each
chain takes its outcome there; the work past it is dropped, and one step
records the block.  A block runs one iteration past the mean run every
chain accepted, within _DEPTH, a float budget and its chunk.  Every block
runs once under an np.errstate that records floating-point errors; one
that met an error runs again one deep and unguarded, and the blocks up to
its end run one deep.  Every block takes one path, whatever its depth, and
each number comes from ufuncs, per-slice matmuls and dots on each slice
alone, so how far a block runs ahead changes no bit, and every chain gives
the bytes of a lone run.  run_weight_chain, proposal_log_density and
objective_and_gradient are the one-chain calls of this code.
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
    objective_halves,
)

# The step-size schedule's offset and decay exponent.
SCHEDULE_OFFSET = 1000.0
SCHEDULE_DECAY = 0.8

# The largest step-size scaling a chain may use; see WeightChainConfig.
MAX_STEP_SCALE = 1e6

# Iterations of noise and uniforms a chain draws at a time, capped so that
# a chunk holds at most _CHUNK_FLOATS normals per chain.
_CHUNK = 256
_CHUNK_FLOATS = 2 ** 14

# The most iterations a chain computes ahead of its MH tests, capped so that
# its block buffers hold at most _CHUNK_FLOATS floats per chain.
_DEPTH = 32


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
    """Annealed step size at iteration t >= 0 for a context of num_points vertices."""
    if not 0 <= t < math.inf:
        raise ValueError(f"iteration must be nonnegative and finite, got {t}")
    return _schedule(cfg, num_points)(t)


def _schedule(cfg: WeightChainConfig, num_points: int):
    """step_size's expression as a function of t, which it does not check."""
    if num_points < 1:
        raise ValueError("context must contain at least one vertex")
    alpha = 250.0 * cfg.step_scale / num_points
    return lambda t: alpha * (SCHEDULE_OFFSET + t) ** (-SCHEDULE_DECAY)


class WeightChainError(ArithmeticError):
    """A non-finite objective in one weight chain; chain is its index in run_weight_chains' input."""

    def __init__(self, message, chain):
        super().__init__(message)
        self.chain = chain

    def __reduce__(self):
        # A --jobs worker pickles the error back; the default rebuilds it from args alone.
        return type(self), (*self.args, self.chain)


def _drift_norms(frm, to, grad_frm, step):
    """|to - frm + step grad_frm|^2 of every slice of ... x B x D stacks, as a
    new array of shape (..., 1, 1); log q(frm -> to) is this over -4 step,
    up to the additive constant shared by both directions.

    step is a float, or an array that broadcasts against the stacks with one
    step per leading index.  The norms are a matmul of the drift's
    dot_views, so a slice gets the bits of np.vdot on that slice alone.
    """
    drift = np.subtract(to, frm)
    drift += np.multiply(grad_frm, step)
    rows, cols = dot_views(drift)
    return np.matmul(rows, cols)


def proposal_log_density(frm: np.ndarray, to: np.ndarray, grad_frm: np.ndarray, step: float):
    """log q(frm -> to) up to the additive constant shared by both directions.

    A state of two or fewer dimensions (a B x D matrix, or a vector) gives a
    float; a stack of B x D states gives an array with one value per state.
    It is the one-call use of the chain's _drift_norms.  A step that is not
    positive and finite raises ValueError.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step size must be positive and finite, got {step}")
    frm, to, grad_frm = (np.asarray(a, dtype=np.float64) for a in (frm, to, grad_frm))
    lead, state = (frm.shape[:-2], frm.shape[-2:]) if frm.ndim >= 2 else ((), (1, frm.size))
    shape = (math.prod(lead),) + state
    norms = _drift_norms(frm.reshape(shape), to.reshape(shape), grad_frm.reshape(shape), step)
    return float(norms[0, 0, 0]) / (-4.0 * step) if not lead else norms.reshape(lead) / (-4.0 * step)


def accept_log_prob(current: np.ndarray, proposal: np.ndarray, ctx: ObjectiveContext, step: float) -> float:
    """log of the Metropolis-Hastings acceptance probability of the proposal.

    As in the chain, a non-finite current U or a NaN or -inf proposal U
    raises WeightChainError (chain None), and a proposal U of +inf, or any
    NaN log alpha, gives -inf, a certain rejection.  A step that is not
    positive and finite raises ValueError.
    """
    u_cur, grad_cur = objective_and_gradient(current, ctx)
    u_prop, grad_prop = objective_and_gradient(proposal, ctx)
    if not (math.isfinite(u_cur) and u_prop > -math.inf):
        raise WeightChainError(f"weight-chain objective is {u_cur} at the current state "
                               f"and {u_prop} at the proposal", None)
    log_fwd = proposal_log_density(current, proposal, grad_cur, step)
    log_rev = proposal_log_density(proposal, current, grad_prop, step)
    log_alpha = u_cur - u_prop + log_rev - log_fwd
    return -math.inf if math.isnan(log_alpha) else min(0.0, log_alpha)


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


def _decide(labels, t, values, proposed, drift_norms, tests) -> tuple:
    """Settle the MH tests of iterations t + 1, t + 2, ... of a stack, in order.

    values holds the chains' objectives after iteration t.  Entries kS to
    (k + 1)S - 1 of proposed hold the objectives of the proposals of
    iteration t + k + 1, made as if every chain accepted every proposal
    before it; the same entries of drift_norms over -4 h give their reverse
    densities.  tests[k] holds that iteration's -4 h, forward densities and
    uniforms; log alpha is u - u' + log q(reverse) - log q(forward).  The
    scan stops at the first iteration at which a chain rejects, since the
    later proposals assumed it did not.  Returns the flags of the last
    iteration decided, the number decided and the chains' objectives after it.
    """
    size = len(labels)
    for k, (quarter, fwds, uniforms) in enumerate(tests, 1):
        first, end = (k - 1) * size, k * size
        prop_values, flags = proposed[first:end], []
        for label, u, u_prop, norm, log_fwd, draw in zip(
                labels, values, prop_values, drift_norms[first:end], fwds, uniforms):
            if math.isnan(u_prop):
                raise WeightChainError(
                    f"weight-chain objective is nan at the proposal of iteration {t + k}", label)
            log_alpha = u - u_prop + norm / quarter - log_fwd
            accept = log_alpha >= 0.0 or draw < math.exp(log_alpha)
            if accept and not math.isfinite(u_prop):
                raise WeightChainError(f"weight-chain objective is {u_prop} at iteration {t + k}", label)
            flags.append(accept)
        if not all(flags):
            break
        values = prop_values
    return flags, k, [b if a else u for a, u, b in zip(flags, values, prop_values)]


def _run_stack(ctxs, cfgs, labels) -> list:
    """The lockstep loop over chains of one shape and schedule; labels name them in errors."""
    ctx, cfg = ctxs[0], cfgs[0]
    steps = list(map(_schedule(cfg, ctx.size), range(cfg.iterations)))
    step_cols = np.array(steps)[:, None, None, None]
    size, shape = len(ctxs), (len(ctxs), ctx.num_blocks, ctx.num_features)
    generators = [_chain_generators(c.seed) for c in cfgs]
    floats = shape[1] * shape[2]
    chunk = max(1, min(_CHUNK, _CHUNK_FLOATS // max(1, floats), cfg.iterations))
    # Slot 0 holds the states and slot k the proposal of k iterations ahead;
    # per chain and slot a block holds 5 B x D arrays (two of them the
    # drift's temporaries), 3 of U and one U x B.
    per_slot = 5 * floats + (3 + shape[1]) * ctx.rows.shape[0]
    depth_cap = max(1, min(_DEPTH, _CHUNK_FLOATS // per_slot, chunk))
    states, grads = np.empty((depth_cap + 1,) + shape), np.empty((depth_cap + 1,) + shape)
    gradient, objective_values = objective_halves(ctxs, states, grads)
    state_slots, grad_slots = list(states), list(grads)
    state, grad = state_slots[0], grad_slots[0]
    for (initial, _, _), c, weights in zip(generators, cfgs, state):
        weights[...] = initial.normal(0.0, c.sigma, shape[1:])
    gradient(0)
    values = objective_values(0, 1)
    for label, u in zip(labels, values):
        if not math.isfinite(u):
            raise WeightChainError(f"weight-chain objective is {u} at the initial draw", label)

    keep = retained_indices(cfg.iterations, cfg.burn_in, cfg.thinning)
    kept = np.empty((size, len(keep)) + shape[1:])  # chain s's samples are kept[s]
    keep_at, r = keep + [cfg.iterations + 1], 0  # keep_at[r] is the next iteration to keep
    if keep_at[0] == 0:
        kept[:, 0], r = state, 1
    # Row-major (iteration, chain) records, 8 and 1 bytes an entry.
    trace, accepted = array("d", values), bytearray()

    add, subtract, multiply, copyto = np.add, np.subtract, np.multiply, np.copyto
    faults = []  # the floating-point errors met by a block's guarded attempt
    # Errors of the kinds the caller's error state does not ignore are
    # recorded, not reported, while a block makes its guarded attempt.
    guard = {kind: "call" for kind, mode in np.geterr().items() if mode != "ignore"}
    guard["call"] = lambda kind, flag: faults.append(kind)

    def ahead(t, n, i):
        # The proposals of iterations t + 1 .. t + n, as if every chain
        # accepted each one: each from the one before, with its gradient.
        # Then, once for the block, their objectives and reverse densities.
        for k in range(n):
            proposal = state_slots[k + 1]
            multiply(grad_slots[k], steps[t + k], proposal)
            subtract(state_slots[k], proposal, proposal)
            add(proposal, xi_slots[i + k], proposal)
            gradient(k + 1)
        norms = _drift_norms(states[1:n + 1], states[:n], grads[1:n + 1], step_cols[t:t + n])
        return objective_values(1, n + 1), norms.reshape(-1).tolist()

    noise_buffer, uniform_buffer = np.empty((size, chunk) + shape[1:]), np.empty((size, chunk))
    moved = plain = 0  # the iterations every chain accepted; blocks before plain run one deep
    for start in range(0, cfg.iterations, chunk):
        # Each chain's noise and uniforms for the chunk's iterations, one
        # call per stream, then the forward densities -|xi|^2 / 2 from one
        # matmul, before the noise is scaled by sqrt(2 h_t) in place.
        hs = steps[start:start + chunk]
        noise, uniforms = noise_buffer[:, :len(hs)], uniform_buffer[:, :len(hs)]
        for (_, normal, uniform), xi, row in zip(generators, noise, uniforms):
            normal.standard_normal(out=xi)
            uniform.random(out=row)
        rows, cols = dot_views(noise.reshape((size * len(hs),) + shape[1:]))
        fwd_chunk = (np.matmul(rows, cols).reshape(size, -1) / -2.0).T.tolist()
        tests = list(zip([-4.0 * h for h in hs], fwd_chunk, uniforms.T.tolist()))
        multiply(noise, np.sqrt(np.multiply(2.0, hs))[:, None, None], noise)
        xi_slots = list(noise.swapaxes(0, 1))
        t, stop = start, start + len(hs)
        while t < stop:
            # One iteration past the mean run that every chain accepted.
            n = 1 if t < plain else min(depth_cap, stop - t, 1 + moved // (t - moved + 1))
            i = t - start
            # Work past the first rejection must raise no warning: after a
            # floating-point error the block runs again one deep, raising
            # what it raises, so a fault costs one rerun.
            with np.errstate(**guard):
                proposed, drift_norms = ahead(t, n, i)
            if faults:
                faults.clear()
                n, plain = 1, max(plain, t + n)
                proposed, drift_norms = ahead(t, 1, i)
            flags, j, values = _decide(labels, t, values, proposed, drift_norms, tests[i:i + n])
            # Every chain accepted iterations t + 1 .. t + j - 1; at t + j
            # each moves to slot j - 1, then those that accept to slot j.
            # The commit writes slot 0 alone, so the records read slots
            # 1 .. j - 1 after it.
            mask = np.array(flags)[:, None, None]
            for slots, current in ((state_slots, state), (grad_slots, grad)):
                copyto(current, slots[j - 1])
                copyto(current, slots[j], where=mask)
            trace.extend(proposed[:(j - 1) * size] + values)
            accepted.extend(b"\x01" * (size * (j - 1)) + bytes(flags))
            while keep_at[r] <= t + j:
                kept[:, r] = state if keep_at[r] == t + j else state_slots[keep_at[r] - t]
                r += 1
            moved += j - 1 + all(flags)
            t += j

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

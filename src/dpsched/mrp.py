"""Markov reward process for the backlog chain t[n].

Builds the transition matrix of a policy, solves the stationary
distribution, computes the average-power and average-delay rewards, and
implements the one-row mixing analysis (reward interpolation weight and
segment slope in the (power, delay) plane).
"""
from __future__ import annotations

import warnings

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import DegenerateSegment, RowDiffCountMismatch, SingularChain
from .model import ModelParams, Policy

# A pivot below this magnitude marks the balance system as singular
# (multiple recurrent classes).
SINGULAR_TOL = 1e-12
STATIONARITY_TOL = 1e-10


@dataclass(frozen=True)
class TransitionMatrix:
    """Column-stochastic transition matrix of the backlog chain.

    matrix[j, i] is the probability of moving from state i to state j,
    so each column indexes a source state and sums to 1.
    """

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    def column_sums(self) -> np.ndarray:
        return self.matrix.sum(axis=0)

    def to_csv(self) -> str:
        return "\n".join(
            ",".join(f"{v:.17g}" for v in row) for row in self.matrix
        ) + "\n"


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run occupancy of the backlog states."""

    pi: np.ndarray

    def __post_init__(self):
        self.pi.setflags(write=False)

    def to_csv(self) -> str:
        return ",".join(f"{v:.17g}" for v in self.pi) + "\n"


@dataclass(frozen=True)
class DelayPowerPoint:
    """Reward pair of a policy: average power and average delay (slots)."""

    power: float
    delay: float
    policy: Optional[Policy] = None
    thresholds: Optional[tuple[int, ...]] = None

    def as_tuple(self) -> tuple[float, float]:
        return (self.power, self.delay)


def build_transition_enumerative(params: ModelParams, policy: Policy) -> TransitionMatrix:
    """Transition matrix by direct enumeration of (action, arrival) events.

    From state i, transmitting m bits leads to i-m without an arrival
    (probability 1-alpha) and to i-m+A with one (probability alpha).
    """
    K, A, alpha = params.K, params.A, params.alpha
    lam = np.zeros((K + 1, K + 1))
    f = policy.f
    for i in range(K + 1):
        for m in range(params.M + 1):
            p = f[i, m]
            if p == 0.0:
                continue
            lam[i - m, i] += (1 - alpha) * p
            lam[i - m + A, i] += alpha * p
    return TransitionMatrix(lam)


def build_transition_piecewise(params: ModelParams, policy: Policy) -> TransitionMatrix:
    """Transition matrix by the six-case closed-form rule.

    Cases are selected on the jump i-j and the target state j; kept as a
    literal transcription so it can cross-check the enumerative builder.
    """
    K, A, M, alpha = params.K, params.A, params.M, params.alpha
    f = policy.f
    lam = np.zeros((K + 1, K + 1))
    for i in range(K + 1):
        for j in range(K + 1):
            d = i - j
            if M - A < d <= M:
                lam[j, i] = (1 - alpha) * f[i, d]
            elif 0 <= d <= M - A and j < A:
                lam[j, i] = (1 - alpha) * f[i, d]
            elif 0 <= d <= M - A and A <= j <= K - A:
                lam[j, i] = (1 - alpha) * f[i, d] + alpha * f[i, d + A]
            elif 0 <= d <= M - A and j > K - A:
                lam[j, i] = alpha * f[i, d + A]
            elif -A <= d < 0 and j >= A:
                lam[j, i] = alpha * f[i, d + A]
            # else zero
    return TransitionMatrix(lam)


def _solve_balance(T: TransitionMatrix):
    """Stationary solve of the normalized balance system H pi = e_0, where H
    stacks a ones row over the first K rows of (Lambda - I).  Returns H, its
    LU factors (dense LU with partial pivoting) and the cleaned pi."""
    n = T.n_states
    H = np.vstack([np.ones((1, n)), (T.matrix - np.eye(n))[: n - 1, :]])
    with warnings.catch_warnings():
        # exact singularity is detected below via the pivot threshold
        warnings.simplefilter("ignore")
        lu_piv = lu_factor(H, check_finite=False)
    if np.min(np.abs(np.diag(lu_piv[0]))) < SINGULAR_TOL:
        raise SingularChain(
            "balance system is numerically singular (pivot below "
            f"{SINGULAR_TOL}); the chain likely has multiple recurrent classes"
        )
    e0 = np.zeros(n)
    e0[0] = 1.0
    return H, lu_piv, _clean_pi(T, lu_solve(lu_piv, e0, check_finite=False))


def stationary_distribution(T: TransitionMatrix) -> StationaryDistribution:
    """Solve for the stationary distribution via the normalized balance
    system (dense LU with partial pivoting)."""
    return StationaryDistribution(_solve_balance(T)[2])


def _clean_pi(T: TransitionMatrix, pi: np.ndarray) -> np.ndarray:
    if np.any(pi < -SINGULAR_TOL):
        raise SingularChain(
            f"stationary solve produced negative mass {pi.min()}"
        )
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.max(np.abs(T.matrix @ pi - pi))
    if residual > STATIONARITY_TOL:
        raise SingularChain(f"stationarity residual {residual} exceeds tolerance")
    return pi


def power_reward_vector(params: ModelParams, policy: Policy) -> np.ndarray:
    """Per-state expected transmission power."""
    return policy.f @ params.power_array


def average_power(params: ModelParams, policy: Policy, pi: StationaryDistribution) -> float:
    return float(power_reward_vector(params, policy) @ pi.pi)


def average_delay(params: ModelParams, pi: StationaryDistribution) -> float:
    """Average delay in slots by Little's law: mean backlog over the
    arrival rate alpha*A, minus the one-slot arrival itself."""
    states = np.arange(params.K + 1, dtype=float)
    d = float(states @ pi.pi) / (params.alpha * params.A) - 1.0
    if d < -STATIONARITY_TOL:
        raise SingularChain(f"negative average delay {d}")
    return max(d, 0.0)


class _ChainSolve:
    """Factorized balance system of one policy, with lazily built inverse."""

    __slots__ = ("H", "lu_piv", "pi", "p_vec", "point", "_h_inv")

    def __init__(self, params: ModelParams, policy: Policy):
        T = build_transition_enumerative(params, policy)
        self.H, self.lu_piv, self.pi = _solve_balance(T)
        self.p_vec = power_reward_vector(params, policy)
        sd = StationaryDistribution(self.pi.copy())
        self.point = DelayPowerPoint(
            power=average_power(params, policy, sd),
            delay=average_delay(params, sd),
            policy=policy,
        )
        self._h_inv = None

    @property
    def h_inv(self) -> np.ndarray:
        if self._h_inv is None:
            self._h_inv = lu_solve(self.lu_piv, np.eye(self.H.shape[0]), check_finite=False)
        return self._h_inv


class EvalCache:
    """Per-computation cache of chain solves, keyed by policy entries.

    Confine one instance to one frontier computation; do not share across
    threads.
    """

    def __init__(self):
        self._solves: dict[bytes, _ChainSolve] = {}

    def solve(self, params: ModelParams, policy: Policy) -> _ChainSolve:
        key = policy.key()
        hit = self._solves.get(key)
        if hit is None:
            hit = _ChainSolve(params, policy)
            self._solves[key] = hit
        return hit


def evaluate(params: ModelParams, policy: Policy, cache: Optional[EvalCache] = None) -> DelayPowerPoint:
    """Average (power, delay) reward pair of a policy."""
    if cache is not None:
        return cache.solve(params, policy).point
    return _ChainSolve(params, policy).point


def mix_policies(F: Policy, F2: Policy, epsilon: float) -> Policy:
    """Entrywise convex combination (1-epsilon)*F + epsilon*F2."""
    if F.f.shape != F2.f.shape:
        raise RowDiffCountMismatch("policies have different shapes")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return Policy(F.params, (1 - epsilon) * F.f + epsilon * F2.f)


def _one_row_pair_data(params: ModelParams, F: Policy, F2: Policy, cache: Optional[EvalCache]):
    rows = F.differing_rows(F2)
    if len(rows) != 1:
        raise RowDiffCountMismatch(
            f"policies differ in {len(rows)} rows, expected exactly 1"
        )
    k = rows[0]
    cache = cache or EvalCache()
    sa = cache.solve(params, F)
    sb = cache.solve(params, F2)
    delta_k = sb.H[:, k] - sa.H[:, k]
    zeta_k = sb.p_vec[k] - sa.p_vec[k]
    return k, sa, sb, delta_k, zeta_k


@dataclass(frozen=True)
class MixingAnalysis:
    """Closed-form geometry of mixing two policies differing in row k.

    The reward pair of the epsilon-mixture equals the epsilon'-weighted
    combination of the endpoint reward pairs, where epsilon' depends on
    the inner product of h_k (row k of the inverse balance matrix of the
    first policy) with delta_k (the only nonzero column of the balance
    matrix difference).
    """

    k: int
    delta_k: np.ndarray
    zeta_k: float
    h_k: np.ndarray
    endpoint_a: DelayPowerPoint
    endpoint_b: DelayPowerPoint

    @property
    def coupling(self) -> float:
        return float(self.h_k @ self.delta_k)

    def epsilon_prime(self, epsilon: float) -> float:
        u = self.coupling
        return (epsilon + epsilon * u) / (1.0 + epsilon * u)

    def predicted_point(self, epsilon: float) -> tuple[float, float]:
        w = self.epsilon_prime(epsilon)
        pa, pb = self.endpoint_a, self.endpoint_b
        return (
            (1 - w) * pa.power + w * pb.power,
            (1 - w) * pa.delay + w * pb.delay,
        )


def mixing_analysis(
    params: ModelParams,
    F: Policy,
    F2: Policy,
    cache: Optional[EvalCache] = None,
) -> MixingAnalysis:
    k, sa, sb, delta_k, zeta_k = _one_row_pair_data(params, F, F2, cache)
    return MixingAnalysis(
        k=k,
        delta_k=delta_k,
        zeta_k=float(zeta_k),
        h_k=sa.h_inv[k, :].copy(),
        endpoint_a=sa.point,
        endpoint_b=sb.point,
    )


@dataclass(frozen=True)
class SegmentSlope:
    """Slope (delay per unit power) of the segment traced by one-row mixing."""

    closed_form: float
    finite_difference: float


def segment_slope(
    params: ModelParams,
    F: Policy,
    F2: Policy,
    cache: Optional[EvalCache] = None,
) -> SegmentSlope:
    k, sa, sb, delta_k, zeta_k = _one_row_pair_data(params, F, F2, cache)
    dp = sb.point.power - sa.point.power
    if abs(dp) < 1e-12:
        raise DegenerateSegment(
            f"endpoint powers coincide ({sa.point.power}); slope undefined"
        )
    v = lu_solve(sa.lu_piv, delta_k, check_finite=False)
    states = np.arange(params.K + 1, dtype=float)
    closed = float(states @ v) / (
        params.alpha * params.A * (float(sa.p_vec @ v) - zeta_k)
    )
    fd = (sb.point.delay - sa.point.delay) / dp
    return SegmentSlope(closed_form=closed, finite_difference=fd)

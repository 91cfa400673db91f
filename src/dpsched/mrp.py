"""Markov reward process for the backlog chain t[n].

Builds the transition matrix of a policy, solves the stationary
distribution, computes the average-power and average-delay rewards, and
implements the one-row mixing analysis (reward interpolation weight and
segment slope in the (power, delay) plane).

Transition matrices and stationary distributions are plain read-only
ndarrays.  Every policy is scored by one path: build the transition
matrix, factor and solve its normalized balance system, then take the
rewards of the stationary distribution.
"""
from __future__ import annotations

import warnings

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import DegenerateSegment, RowDiffCountMismatch, SingularChain
from .model import ModelParams, Policy

# A pivot below this magnitude marks the balance system as singular
# (multiple recurrent classes).
SINGULAR_TOL = 1e-12
STATIONARITY_TOL = 1e-10


@dataclass(frozen=True)
class DelayPowerPoint:
    """Reward pair of a policy: average power and average delay (slots)."""

    power: float
    delay: float
    policy: Optional[Policy] = None
    thresholds: Optional[tuple[int, ...]] = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_transition_enumerative(params: ModelParams, policy: Policy) -> np.ndarray:
    """Transition matrix by direct enumeration of (action, arrival) events.

    Returns the read-only (K+1)x(K+1) column-stochastic matrix lam:
    lam[j, i] is the probability of moving from state i to state j, so
    each column indexes a source state and sums to 1.  From state i,
    transmitting m bits leads to i-m without an arrival (probability
    1-alpha) and to i-m+A with one (probability alpha).
    """
    K, A, alpha = params.K, params.A, params.alpha
    lam = np.zeros((K + 1, K + 1))
    i, m = np.nonzero(policy.f)
    p = policy.f[i, m]
    # all no-arrival terms, then all arrival terms: each entry sums the
    # same terms in the same order as a loop over (i, m)
    np.add.at(lam, (i - m, i), (1 - alpha) * p)
    np.add.at(lam, (i - m + A, i), alpha * p)
    return _read_only(lam)


def build_transition_piecewise(params: ModelParams, policy: Policy) -> np.ndarray:
    """Transition matrix by the six-case closed-form rule.

    Returns the same read-only column-stochastic matrix as
    `build_transition_enumerative` (lam[j, i] is the probability of moving
    from state i to state j).  Cases are selected on the jump i-j and the
    target state j; kept as a literal transcription so it can cross-check
    the enumerative builder.
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
    return _read_only(lam)


def _solve_balance(lam: np.ndarray):
    """Stationary solve of the normalized balance system H pi = e_0, where H
    stacks a ones row over the first K rows of (lam - I).  Returns the LU
    factors of H (dense LU with partial pivoting) and the cleaned pi."""
    n = lam.shape[0]
    H = np.vstack([np.ones((1, n)), (lam - np.eye(n))[: n - 1, :]])
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
    return lu_piv, _clean_pi(lam, lu_solve(lu_piv, e0, check_finite=False))


def stationary_distribution(lam: np.ndarray) -> np.ndarray:
    """Read-only stationary distribution of the transition matrix lam, from
    the normalized balance system (dense LU with partial pivoting)."""
    return _read_only(_solve_balance(lam)[1])


def _clean_pi(lam: np.ndarray, pi: np.ndarray) -> np.ndarray:
    if np.any(pi < -SINGULAR_TOL):
        raise SingularChain(
            f"stationary solve produced negative mass {pi.min()}"
        )
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.max(np.abs(lam @ pi - pi))
    if residual > STATIONARITY_TOL:
        raise SingularChain(f"stationarity residual {residual} exceeds tolerance")
    return pi


def power_reward_vector(params: ModelParams, policy: Policy) -> np.ndarray:
    """Per-state expected transmission power."""
    return policy.f @ params.power_array


def average_power(params: ModelParams, policy: Policy, pi: np.ndarray) -> float:
    return float(power_reward_vector(params, policy) @ pi)


def average_delay(params: ModelParams, pi: np.ndarray) -> float:
    """Average delay in slots by Little's law: mean backlog over the
    arrival rate alpha*A, minus the one-slot arrival itself."""
    states = np.arange(params.K + 1, dtype=float)
    d = float(states @ pi) / (params.alpha * params.A) - 1.0
    if d < -STATIONARITY_TOL:
        raise SingularChain(f"negative average delay {d}")
    return max(d, 0.0)


def _solve(params: ModelParams, policy: Policy):
    """Score one policy: its transition matrix, the LU factors of its
    balance system and its reward point."""
    lam = build_transition_enumerative(params, policy)
    lu_piv, pi = _solve_balance(lam)
    point = DelayPowerPoint(
        power=average_power(params, policy, pi),
        delay=average_delay(params, pi),
        policy=policy,
    )
    return lam, lu_piv, point


class EvalCache(dict):
    """Per-computation cache of reward points, `Policy.key()` ->
    `DelayPowerPoint`; it keeps no matrices or factors.

    Confine one instance to one frontier computation; do not share across
    threads.
    """


def evaluate(params: ModelParams, policy: Policy, cache: Optional[EvalCache] = None) -> DelayPowerPoint:
    """Average (power, delay) reward pair of a policy."""
    if cache is None:
        return _solve(params, policy)[2]
    key = policy.key()
    point = cache.get(key)
    if point is None:
        point = cache[key] = _solve(params, policy)[2]
    return point


def mix_policies(F: Policy, F2: Policy, epsilon: float) -> Policy:
    """Entrywise convex combination (1-epsilon)*F + epsilon*F2."""
    if F.f.shape != F2.f.shape:
        raise RowDiffCountMismatch("policies have different shapes")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return Policy(F.params, (1 - epsilon) * F.f + epsilon * F2.f)


@dataclass(frozen=True)
class MixingAnalysis:
    """Closed-form geometry of mixing two policies differing in row k.

    The reward pair of the epsilon-mixture equals the epsilon'-weighted
    combination of the endpoint reward pairs, where epsilon' depends on
    the coupling h_k . delta_k: h_k is row k of the inverse balance matrix
    of the first policy and delta_k the only nonzero column of the balance
    matrix difference.  v = H^-1 delta_k, so the coupling is v[k].

    By the same rank-one update, the mixture's delay and power changes are
    one common factor times delay_direction = states . v and
    power_direction = alpha*A*(r_F . v - zeta_k), where r_F is the first
    policy's per-state power; so the segment slope is their ratio.
    """

    k: int
    delta_k: np.ndarray
    zeta_k: float
    v: np.ndarray
    endpoint_a: DelayPowerPoint
    endpoint_b: DelayPowerPoint
    delay_direction: float
    power_direction: float

    @property
    def coupling(self) -> float:
        return float(self.v[self.k])

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

    def _power_gap(self) -> float:
        dp = self.endpoint_b.power - self.endpoint_a.power
        if abs(dp) < 1e-12:
            raise DegenerateSegment(
                f"endpoint powers coincide ({self.endpoint_a.power}); slope undefined"
            )
        return dp

    @property
    def slope(self) -> float:
        """Closed-form slope (delay per unit power) of the segment."""
        self._power_gap()
        return self.delay_direction / self.power_direction

    @property
    def chord_slope(self) -> float:
        """Finite-difference slope between the two endpoint reward pairs."""
        return (self.endpoint_b.delay - self.endpoint_a.delay) / self._power_gap()


def mixing_analysis(
    params: ModelParams,
    F: Policy,
    F2: Policy,
    cache: Optional[EvalCache] = None,
) -> MixingAnalysis:
    """Mixing geometry of F and F2 from one factorization of F's balance
    matrix; raises RowDiffCountMismatch unless they differ in exactly one row."""
    rows = F.differing_rows(F2)
    if len(rows) != 1:
        raise RowDiffCountMismatch(
            f"policies differ in {len(rows)} rows, expected exactly 1"
        )
    k = rows[0]
    lam_a, lu_a, point_a = _solve(params, F)
    if cache is not None:
        point_a = cache.setdefault(F.key(), point_a)
    point_b = evaluate(params, F2, cache)
    # H_F2 - H_F is zero outside column k; its ones row cancels too
    K = params.K
    delta_k = np.zeros(K + 1)
    delta_k[1:] = build_transition_enumerative(params, F2)[:K, k] - lam_a[:K, k]
    power_a = power_reward_vector(params, F)
    zeta_k = float(power_reward_vector(params, F2)[k] - power_a[k])
    v = lu_solve(lu_a, delta_k, check_finite=False)
    return MixingAnalysis(
        k=k,
        delta_k=delta_k,
        zeta_k=zeta_k,
        v=v,
        endpoint_a=point_a,
        endpoint_b=point_b,
        delay_direction=float(np.arange(K + 1, dtype=float) @ v),
        power_direction=params.alpha * params.A * (float(power_a @ v) - zeta_k),
    )

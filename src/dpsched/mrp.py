"""Markov reward process for the backlog chain t[n].

Builds the transition matrix of a policy, solves the stationary
distribution, computes the average-power and average-delay rewards, and
implements the one-row mixing analysis (reward interpolation weight and
segment slope in the (power, delay) plane).

Transition matrices and stationary distributions are plain read-only
ndarrays.  Every policy is scored by one path: build the transition
matrix, factor its normalized balance system H once (`lu_factor`), solve
it with one step of iterative refinement, then take the rewards of the
stationary distribution.

From state i the chain moves only to i-m or i-m+A (0 <= m <= M), so
lam - I has A sub- and M super-diagonals and only the ones row of H is
dense.  Substituting tail sums for pi turns that row into e_0, and H
factors as a band matrix (LAPACK gbtrf/gbtrs, partial pivoting within
the band) in O(K (A+M) A) time and O(K (A+M)) memory, against O(K^3)
and O(K^2) dense.  The
same factors give the mixing solve H^-1 delta_k.

A chain is classified singular when a pivot of the banded LU falls below
SINGULAR_TOL.  On the brute-force instances (alpha=0.4, A=2, M=3, Q=5 and
Q=6) the largest such pivot of a singular chain is 2.4e-15 and the
smallest of a nonsingular chain 0.030 (the dense LU of H gave 5.0e-16 and
0.030), and the tolerance 1e-12 classifies the same 539 of 2304 and 2795
of 9216 chains as singular.  The gap narrows as alpha nears 0 or 1,
where nearly decomposable chains have pivots of order alpha^j or
(1-alpha)^j.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DegenerateSegment, RowDiffCountMismatch, SingularChain
from .model import ModelParams, Policy

# A pivot of the banded LU below this magnitude marks the balance system as
# singular (multiple recurrent classes).  Basis, measured on every
# deterministic policy of the brute-force instances: singular chains give
# rounding-level pivots (at most 2.4e-15), nonsingular ones at least 0.030.
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


@lru_cache(maxsize=16)
def _band_gather(n: int, lower: int, upper: int):
    """Where the band of H's rows 1..n-1 sits in a flattened n x n lam with
    `lower` sub- and `upper` super-diagonals.

    Entry [t, k] is H[k - upper + t, k] for t = 0..lower+upper+1: the flat
    index of lam[k - upper - 1 + t, k], a 0/1 mask of the lam rows 0..n-2
    that H keeps, and the -1 of (lam - I) on its diagonal.
    """
    t = np.arange(lower + upper + 2)[:, None]
    k = np.arange(n)
    j = k - upper - 1 + t
    keep = (j >= 0) & (j <= n - 2)
    arrays = np.where(keep, j * n + k, 0), keep.astype(float), (keep & (j == k)).astype(float)
    return tuple(_read_only(a) for a in arrays)  # cached: shared by every caller


@dataclass(frozen=True)
class BandLU:
    """Banded LU factors of the balance system H of lam, taken through the
    tail-sum substitution pi = D z (`lu_factor`)."""

    lam: np.ndarray
    ab: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int


def _balance_band(lam: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """H D in LAPACK band storage for `lu_factor`: with kl = lower+1 and
    ku = upper, ab[kl + ku + r - k, k] = (H D)[r, k], and the top kl rows
    are the fill-in space of gbtrf."""
    n = lam.shape[0]
    kl, ku = lower + 1, upper
    flat, keep, eye = _band_gather(n, lower, upper)
    # band of H: h[t, k] = H[k - ku + t, k]; (H D)[r, k] = H[r, k] - H[r, k-1]
    h = lam.take(flat) * keep - eye
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = h
    ab[kl:-1, 1:] -= h[1:, :-1]
    ab[kl + ku, 0] = 1.0  # the ones row of H times D
    return ab


def lu_factor(lam: np.ndarray, lower: int, upper: int) -> BandLU:
    """Factor the normalized balance system H (a ones row over the first K
    rows of lam - I) of a transition matrix with `lower` sub- and `upper`
    super-diagonals.

    With z_k = sum_{j>=k} pi_j, pi = D z for the unit upper bidiagonal D
    (pi_k = z_k - z_{k+1}); the ones row of H D is e_0, so H D is banded
    with kl = lower+1 sub- and ku = upper super-diagonals and factors by
    LAPACK's dgbtrf (partial pivoting within the band) in O(K (kl+ku) kl).
    Raises SingularChain if a pivot of U is below SINGULAR_TOL.
    """
    kl, ku = lower + 1, upper
    ab, piv, _ = dgbtrf(_balance_band(lam, lower, upper), kl, ku, overwrite_ab=1)
    if np.min(np.abs(ab[kl + ku])) < SINGULAR_TOL:  # the diagonal of U
        raise SingularChain(
            "balance system is numerically singular (pivot below "
            f"{SINGULAR_TOL}); the chain likely has multiple recurrent classes"
        )
    return BandLU(lam, ab, piv, kl, ku)


def lu_solve(lu: BandLU, b: np.ndarray) -> np.ndarray:
    """x = H^-1 b from the factors of H D: solve for z, then x = D z."""
    z, _ = dgbtrs(lu.ab, lu.kl, lu.ku, b, lu.piv)
    x = z.copy()
    x[:-1] -= z[1:]
    return x


def _refined_solve(lu: BandLU, b: np.ndarray) -> np.ndarray:
    """H^-1 b with one step of iterative refinement against H itself."""
    x = lu_solve(lu, b)
    r = b.copy()
    r[0] -= x.sum()
    r[1:] -= lu.lam[:-1] @ x - x[:-1]
    return x + lu_solve(lu, r)


def _solve_balance(lam: np.ndarray, lower: int, upper: int):
    """Stationary solve of the normalized balance system H pi = e_0.  Returns
    the banded factors of H and the cleaned pi."""
    lu = lu_factor(lam, lower, upper)
    e0 = np.zeros(lam.shape[0])
    e0[0] = 1.0
    return lu, _clean_pi(lam, _refined_solve(lu, e0))


def _bandwidths(lam: np.ndarray) -> tuple[int, int]:
    """Sub- and super-diagonal count of lam's nonzero pattern."""
    j, i = np.nonzero(lam)
    return max(int((j - i).max()), 0), max(int((i - j).max()), 0)


def stationary_distribution(lam: np.ndarray) -> np.ndarray:
    """Read-only stationary distribution of the transition matrix lam, from
    the banded factors of its normalized balance system."""
    return _read_only(_solve_balance(lam, *_bandwidths(lam))[1])


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
    """Score one policy: the banded LU factors of its balance system (which
    carry its transition matrix) and its reward point.  From state i the
    chain moves only to i-m or i-m+A, so lam has A sub- and M
    super-diagonals."""
    lam = build_transition_enumerative(params, policy)
    lu, pi = _solve_balance(lam, params.A, params.M)
    point = DelayPowerPoint(
        power=average_power(params, policy, pi),
        delay=average_delay(params, pi),
        policy=policy,
    )
    return lu, point


class EvalCache(dict):
    """Per-computation cache of reward points, `Policy.key()` ->
    `DelayPowerPoint`; it keeps no matrices or factors.

    Confine one instance to one frontier computation; do not share across
    threads.
    """


def evaluate(params: ModelParams, policy: Policy, cache: Optional[EvalCache] = None) -> DelayPowerPoint:
    """Average (power, delay) reward pair of a policy."""
    if cache is None:
        return _solve(params, policy)[1]
    key = policy.key()
    point = cache.get(key)
    if point is None:
        point = cache[key] = _solve(params, policy)[1]
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
    lu_a, point_a = _solve(params, F)
    if cache is not None:
        point_a = cache.setdefault(F.key(), point_a)
    point_b = evaluate(params, F2, cache)
    # H_F2 - H_F is zero outside column k; its ones row cancels too
    K = params.K
    delta_k = np.zeros(K + 1)
    delta_k[1:] = build_transition_enumerative(params, F2)[:K, k] - lu_a.lam[:K, k]
    power_a = power_reward_vector(params, F)
    zeta_k = float(power_reward_vector(params, F2)[k] - power_a[k])
    v = lu_solve(lu_a, delta_k)
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

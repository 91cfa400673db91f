"""Model parameters, scheduling policies and threshold policies.

Everything downstream (chain construction, frontier search, LP, simulation)
shares the types defined here.  All objects are immutable after construction
and fully validated at construction time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    AlphaAboveOne,
    InfeasibleThresholds,
    InvalidPolicy,
    MLessThanA,
    ModelError,
    NonPositiveAlpha,
    PowerNotIncreasingPerBit,
    PowerZeroNonzero,
    StateOutOfRange,
)

# Absolute tolerance for probability comparisons (row sums, entry bounds).
PROB_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """System parameters of the single-buffer transmitter.

    alpha  per-slot arrival probability (0 < alpha <= 1)
    A      bits per arriving packet
    M      maximum bits transmittable per slot (M >= A for stability)
    Q      buffer capacity in bits
    power  power[m] = cost of transmitting m bits, power[0] = 0,
           strictly increasing with strictly increasing per-bit cost
    """

    alpha: float
    A: int
    M: int
    Q: int
    power: tuple[float, ...]

    def __post_init__(self):
        if not self.alpha > 0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {self.alpha}")
        if self.alpha > 1:
            raise AlphaAboveOne(f"alpha must be <= 1, got {self.alpha}")
        if self.A < 1:
            raise ModelError(f"A must be a positive integer, got {self.A}")
        if self.Q < 0:
            raise ModelError(f"Q must be nonnegative, got {self.Q}")
        if self.M < self.A:
            raise MLessThanA(f"need M >= A for stability, got M={self.M}, A={self.A}")
        if len(self.power) != self.M + 1:
            raise ModelError(
                f"power table must have M+1={self.M + 1} entries, got {len(self.power)}"
            )
        if self.power[0] != 0:
            raise PowerZeroNonzero(f"power[0] must be 0, got {self.power[0]}")
        for m in range(1, self.M):
            if not self.power[m] < self.power[m + 1]:
                raise PowerNotIncreasingPerBit(
                    f"power must be strictly increasing: power[{m}]={self.power[m]}, "
                    f"power[{m + 1}]={self.power[m + 1]}"
                )
            if not self.power[m] / m < self.power[m + 1] / (m + 1):
                raise PowerNotIncreasingPerBit(
                    f"per-bit cost must be strictly increasing: "
                    f"power[{m}]/{m}={self.power[m] / m}, "
                    f"power[{m + 1}]/{m + 1}={self.power[m + 1] / (m + 1)}"
                )
        if self.M >= 1 and not self.power[1] > 0:
            raise PowerNotIncreasingPerBit(
                f"power[1] must be > 0, got {self.power[1]}"
            )

    @property
    def K(self) -> int:
        """Largest total-backlog state, K = Q + A."""
        return self.Q + self.A

    @property
    def power_array(self) -> np.ndarray:
        return np.asarray(self.power, dtype=float)


def validate_params(
    alpha: float,
    A: int,
    M: int,
    Q: int,
    power: Sequence[float],
) -> ModelParams:
    """Validate and freeze a candidate parameter set.

    Raises a subclass of ModelError naming the violated constraint.
    """
    return ModelParams(
        alpha=float(alpha),
        A=int(A),
        M=int(M),
        Q=int(Q),
        power=tuple(float(p) for p in power),
    )


def feasible_actions(params: ModelParams, k: int) -> range:
    """Transmit sizes allowed in state k: max(0, k-Q) <= m <= min(k, M).

    The lower bound prevents buffer overflow after the slot, the upper
    bound prevents underflow.  Never empty because M >= A.
    """
    if not 0 <= k <= params.K:
        raise StateOutOfRange(f"state {k} outside [0, {params.K}]")
    return range(max(0, k - params.Q), min(k, params.M) + 1)


def feasibility_mask(params: ModelParams) -> np.ndarray:
    """(K+1) x (M+1) boolean mask of allowed (state, action) pairs: the
    bounds of `feasible_actions` broadcast over every state and action."""
    return _feasible(params, np.arange(params.K + 1)[:, None], np.arange(params.M + 1))


def _feasible(params: ModelParams, k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise feasibility of actions 0 <= m <= M in states 0 <= k <= K."""
    return (m >= k - params.Q) & (m <= k)


class Policy:
    """Row-stochastic (K+1) x (M+1) matrix of transmit probabilities.

    f[k, m] is the probability of transmitting m bits when the total
    backlog is k.  Entries outside the feasibility mask must be zero.
    """

    __slots__ = ("params", "f")

    def __init__(self, params: ModelParams, f, *, validate: bool = True):
        arr = np.array(f, dtype=float)
        if arr.shape != (params.K + 1, params.M + 1):
            raise InvalidPolicy(
                f"policy must be {(params.K + 1, params.M + 1)}, got {arr.shape}"
            )
        if validate:
            if np.any(arr < -PROB_TOL) or np.any(arr > 1 + PROB_TOL):
                raise InvalidPolicy("policy entries must lie in [0, 1]")
            np.clip(arr, 0.0, 1.0, out=arr)
            mask = feasibility_mask(params)
            bad = np.abs(arr[~mask])
            if bad.size and bad.max() > PROB_TOL:
                k, m = np.argwhere((np.abs(arr) > PROB_TOL) & ~mask)[0]
                raise InvalidPolicy(
                    f"f[{k}][{m}] = {arr[k, m]} violates the overflow/underflow mask"
                )
            arr[~mask] = 0.0
            sums = arr.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > PROB_TOL):
                k = int(np.argmax(np.abs(sums - 1.0)))
                raise InvalidPolicy(f"row {k} sums to {sums[k]}, expected 1")
            # renormalize only rows that need it, so rebuilding a policy
            # from already-normalized rows is bit-exact
            off = np.abs(sums - 1.0) > 1e-15
            arr[off] /= sums[off, None]
        arr.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "f", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Policy is immutable")

    def key(self) -> bytes:
        return self.f.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and np.array_equal(self.f, other.f)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Policy(K={self.params.K}, M={self.params.M})"

    def differing_rows(self, other: "Policy", tol: float = 0.0) -> list[int]:
        """Indices of rows where the two matrices differ (beyond tol)."""
        diff = np.abs(self.f - other.f).max(axis=1)
        return [int(k) for k in np.nonzero(diff > tol)[0]]

    def is_deterministic(self, tol: float = PROB_TOL) -> bool:
        return bool(np.all(self.f.max(axis=1) > 1 - tol))

    def action_map(self) -> list[int]:
        """State -> action for a deterministic policy."""
        if not self.is_deterministic(1e-9):
            raise InvalidPolicy("action_map is defined for deterministic policies only")
        return [int(m) for m in np.argmax(self.f, axis=1)]

    def to_csv(self) -> str:
        lines = []
        for row in self.f:
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, params: ModelParams, text: str) -> "Policy":
        rows = []
        for line in text.strip().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(v) for v in line.split(",")])
        return cls(params, rows)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Threshold rule: transmit m bits when thresholds[m-1] < t[n] <= thresholds[m].

    thresholds[-1] is implicitly -1 and thresholds[0] must be 0 (state 0 has
    no choice but to stay silent, and state 1 must transmit).  States above
    thresholds[M] are completed by `threshold_to_policy`: each uncovered
    state gets the smallest feasible action not below its predecessor's.

    At most one threshold may randomize: with randomized_index m*, state
    thresholds[m*] transmits m* bits with probability `weight` and m*+1 bits
    otherwise.
    """

    thresholds: tuple[int, ...]
    randomized_index: Optional[int] = None
    weight: Optional[float] = None

    def __post_init__(self):
        ts = tuple(int(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ts)
        if not ts:
            raise InfeasibleThresholds("empty threshold vector")
        if ts[0] != 0:
            raise InfeasibleThresholds(f"thresholds[0] must be 0, got {ts[0]}")
        for a, b in zip(ts, ts[1:]):
            if b < a:
                raise InfeasibleThresholds(f"thresholds must be nondecreasing: {ts}")
        if (self.randomized_index is None) != (self.weight is None):
            raise InfeasibleThresholds(
                "randomized_index and weight must be given together"
            )
        if self.randomized_index is not None:
            m = self.randomized_index
            if not 0 <= m < len(ts) - 1:
                raise InfeasibleThresholds(f"randomized_index {m} out of range")
            if not 0.0 <= self.weight <= 1.0:
                raise InfeasibleThresholds(f"weight must be in [0, 1], got {self.weight}")

    @property
    def M(self) -> int:
        return len(self.thresholds) - 1

    def is_deterministic(self) -> bool:
        return self.randomized_index is None


def threshold_action_map(params: ModelParams, tp: ThresholdPolicy) -> list[int]:
    """Expand a threshold vector to a full state -> action map.

    States covered by the intervals (thresholds[m-1], thresholds[m]] get
    action m; states beyond thresholds[M] get the smallest feasible action
    that is >= the previous state's action (completion of unreachable
    states, leaving the reward pair unchanged).
    """
    if tp.M != params.M:
        raise InfeasibleThresholds(
            f"threshold vector has {tp.M + 1} entries, expected {params.M + 1}"
        )
    K = params.K
    ts = np.asarray(tp.thresholds)
    if ts[-1] > K:
        raise InfeasibleThresholds(f"threshold {ts[ts > K][0]} exceeds K={K}")
    states = np.arange(K + 1)
    acts = np.searchsorted(ts, states)
    # the completion's lower bound max(0, k-Q) is nondecreasing in k, so
    # carrying the previous action forward reduces to one maximum
    tail = ts[-1] + 1
    acts[tail:] = np.maximum(acts[ts[-1]], states[tail:] - params.Q)
    ok = _feasible(params, states, acts)
    if not ok.all():
        k = int(np.argmin(ok))
        raise InfeasibleThresholds(
            f"thresholds assign infeasible action {acts[k]} to state {k}"
        )
    return acts.tolist()


def _last_state_at_most(acts: Sequence[int], M: int) -> tuple[int, ...]:
    """For m = 0..M, the last state whose action is <= m (or -1), given a
    nondecreasing action map."""
    return tuple((np.searchsorted(acts, np.arange(M + 1), side="right") - 1).tolist())


def complete_thresholds(params: ModelParams, tp: ThresholdPolicy) -> ThresholdPolicy:
    """Canonical full-coverage form: thresholds[m] = max state with action <= m.

    The result covers every state (thresholds[M] = K) and induces the same
    action map.  Randomized policies must already be fully covering.
    """
    if not tp.is_deterministic():
        if tp.thresholds[-1] != params.K:
            raise InfeasibleThresholds(
                "randomized threshold policies must cover all states"
            )
        return tp
    return ThresholdPolicy(_last_state_at_most(threshold_action_map(params, tp), params.M))


def threshold_to_policy(params: ModelParams, tp: ThresholdPolicy) -> Policy:
    """Materialize a ThresholdPolicy as a full Policy matrix."""
    acts = threshold_action_map(params, tp)
    f = np.zeros((params.K + 1, params.M + 1))
    f[np.arange(params.K + 1), acts] = 1.0
    if tp.randomized_index is not None:
        m_star = tp.randomized_index
        k_star = tp.thresholds[m_star]
        if acts[k_star] != m_star:
            raise InfeasibleThresholds(
                f"randomized state {k_star} is not assigned action {m_star}"
            )
        if m_star + 1 not in feasible_actions(params, k_star):
            raise InfeasibleThresholds(
                f"action {m_star + 1} infeasible at randomized state {k_star}"
            )
        f[k_star, :] = 0.0
        f[k_star, m_star] = tp.weight
        f[k_star, m_star + 1] = 1.0 - tp.weight
    return Policy(params, f)


def parse_param_text(text: str) -> ModelParams:
    """Parse the flat key-value parameter format.

    Keys: alpha, A, M, Q, power (comma-separated list).  Lines starting
    with '#' are comments.
    """
    kv: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelError(f"bad parameter line: {line!r}")
        key, val = line.split("=", 1)
        kv[key.strip()] = val.strip()
    missing = {"alpha", "A", "M", "Q", "power"} - set(kv)
    if missing:
        raise ModelError(f"missing parameter keys: {sorted(missing)}")
    return validate_params(
        alpha=float(kv["alpha"]),
        A=int(kv["A"]),
        M=int(kv["M"]),
        Q=int(kv["Q"]),
        power=[float(p) for p in kv["power"].split(",")],
    )


def load_params(path: Union[str, Path]) -> ModelParams:
    return parse_param_text(Path(path).read_text())

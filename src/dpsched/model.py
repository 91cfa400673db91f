"""Model parameters, scheduling policies and threshold policies.

Everything downstream (chain construction, frontier search, LP, simulation)
shares the types defined here.  All objects are immutable after construction
and fully validated at construction time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AlphaAboveOne,
    InfeasibleThresholds,
    InvalidPolicy,
    MLessThanA,
    ModelError,
    NonPositiveAlpha,
    PowerNotConvex,
    PowerNotIncreasingPerBit,
    PowerZeroNonzero,
    StateOutOfRange,
)

# Relative allowance for a power table's increments to decrease, against
# S, the largest magnitude of the three entries two neighbouring increments
# come from.  An entry written in decimal is within eps/2 of its value
# relative to itself, and each difference rounds within eps/2 of itself; in
# a table of increasing nonnegative entries an increment is at most S, so
# each is within 1.5 eps * S of its exact value and their difference within
# 3 eps * S.  So a tie written in decimal, such as 0, 1, 2.2, 3.4, passes.
CONVEX_TOL = 4 * float(np.finfo(float).eps)

# Absolute tolerance for probability comparisons (row sums, entry bounds).
PROB_TOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """System parameters of the single-buffer transmitter.

    alpha  per-slot arrival probability (0 < alpha <= 1)
    A      bits per arriving packet
    M      maximum bits transmittable per slot (M >= A for stability)
    Q      buffer capacity in bits
    power  power[m] = cost of transmitting m bits, finite, power[0] = 0,
           strictly increasing with strictly increasing per-bit cost, and
           convex: its increments power[m+1] - power[m] do not decrease
           by more than their rounding (CONVEX_TOL)
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
        for m, p in enumerate(self.power):
            if not np.isfinite(p):
                raise ModelError(f"power[{m}] must be finite, got {p}")
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
            step, next_step = self.power[m] - self.power[m - 1], self.power[m + 1] - self.power[m]
            scale = max(map(abs, self.power[m - 1 : m + 2]))
            if not step <= next_step + CONVEX_TOL * scale:
                raise PowerNotConvex(
                    f"power must be convex (nondecreasing increments): "
                    f"power[{m}]-power[{m - 1}]={step}, "
                    f"power[{m + 1}]-power[{m}]={next_step}"
                )
        if self.M >= 1 and not self.power[1] > 0:
            raise PowerNotIncreasingPerBit(
                f"power[1] must be > 0, got {self.power[1]}"
            )

    @property
    def K(self) -> int:
        """Largest total-backlog state, K = Q + A."""
        return self.Q + self.A

    @cached_property
    def power_array(self) -> np.ndarray:
        """The power table as a read-only float array, converted once."""
        a = np.asarray(self.power, dtype=float)
        a.setflags(write=False)
        return a


def validate_params(
    alpha: float,
    A: int,
    M: int,
    Q: int,
    power: Sequence[float],
) -> ModelParams:
    """Validate and freeze a candidate parameter set.

    Raises a subclass of ModelError naming the violated constraint.  A, M
    and Q may be given as any integral number (2, 2.0, numpy.int64(2));
    a non-integral one raises ModelError rather than being truncated.  An
    alpha or power entry that is not a number, or a power that is not a
    sequence, raises ModelError naming it.
    """
    return ModelParams(
        alpha=_parse("alpha", alpha, float),
        A=_integer("A", A),
        M=_integer("M", M),
        Q=_integer("Q", Q),
        power=_power_table(power),
    )


def _integer(name: str, value) -> int:
    """value as an int if it is an integral number, else ModelError naming
    the field."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value:
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return i


def _power_table(power) -> tuple[float, ...]:
    """power as a tuple of floats, or ModelError naming power if it is not
    a sequence, or the first entry that is not a number."""
    try:
        entries = list(power)
    except TypeError:
        entries = None
    if entries is None or isinstance(power, str):
        raise ModelError(f"power must be a sequence of numbers, got {power!r}")
    return tuple(_parse(f"power[{m}]", p, float) for m, p in enumerate(entries))


def _parse(key: str, value, kind: type):
    """value (a number or its text) as an int or a float, or ModelError
    naming the parameter."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ModelError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}") from None


def parse_power(text: str) -> list[float]:
    """The comma-separated power table P_0..P_M, or ModelError naming a
    malformed entry."""
    return [_parse(f"power[{m}]", v, float) for m, v in enumerate(text.split(","))]


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


def _malformed_rows(f, width: int) -> str:
    """Why f, which numpy could not read as a float matrix, is no policy:
    its first row without `width` entries or first entry that is not a
    number."""
    try:
        rows = list(f)
    except TypeError:
        rows = []
    for k, row in enumerate(rows):
        try:
            n = len(row)
        except TypeError:
            return f"row {k} must be a sequence of {width} numbers, got {row!r}"
        if n != width:
            return f"row {k} has {n} entries, expected {width}"
        for m, v in enumerate(row):
            try:
                float(v)
            except (TypeError, ValueError, OverflowError):
                return f"f[{k}][{m}] = {v!r} must be a number"
    return f"policy must be a matrix of numbers, got {f!r}"


class Policy:
    """Row-stochastic (K+1) x (M+1) matrix of transmit probabilities.

    f[k, m] is the probability of transmitting m bits when the total
    backlog is k.  Entries outside the feasibility mask must be zero.
    """

    __slots__ = ("params", "f")

    def __init__(self, params: ModelParams, f, *, validate: bool = True):
        try:
            arr = np.array(f, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidPolicy(_malformed_rows(f, params.M + 1)) from None
        if arr.shape != (params.K + 1, params.M + 1):
            raise InvalidPolicy(
                f"policy must be {(params.K + 1, params.M + 1)}, got {arr.shape}"
            )
        if validate:
            outside = ~((arr >= -PROB_TOL) & (arr <= 1 + PROB_TOL))  # NaN included
            if outside.any():
                k, m = np.argwhere(outside)[0]
                raise InvalidPolicy(f"f[{k}][{m}] = {arr[k, m]} must lie in [0, 1]")
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

    def differing_rows(self, other: "Policy") -> list[int]:
        """Indices of rows where the two matrices differ."""
        return np.flatnonzero((self.f != other.f).any(axis=1)).tolist()

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
        """The policy of `to_csv`'s text; blank lines and lines starting with
        '#' are skipped.  A malformed number, or a row without M+1 fields,
        raises ModelError naming its line (and field)."""
        rows = []
        for i, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if len(fields) != params.M + 1:
                raise InvalidPolicy(
                    f"policy line {i} has {len(fields)} fields, expected {params.M + 1}")
            rows.append([_parse(f"policy line {i} field {j}", v, float)
                         for j, v in enumerate(fields, 1)])
        return cls(params, rows)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Threshold rule: transmit m bits when thresholds[m-1] < t[n] <= thresholds[m].

    thresholds[-1] is implicitly -1 and thresholds[0] must be 0 (state 0 has
    no choice but to stay silent, and state 1 must transmit).  States above
    thresholds[M] are completed by `_complete_actions`.

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


def _complete_actions(params: ModelParams, acts: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """Complete a state -> action map over the states not `assigned`: those
    past thresholds[M], or those an LP solution gives no mass.

    An unassigned state k takes max(a, k-Q), where a = acts[j] for the last
    assigned state j < k (0 if there is none).  As k-Q is nondecreasing in
    k, this is the smallest action not below the previous state's that
    avoids overflow.  The result may exceed min(k, M); callers check
    feasibility.
    """
    if assigned.all():
        return acts
    states = np.arange(params.K + 1)
    last = np.maximum.accumulate(np.where(assigned, states, -1), axis=-1)
    carried = np.where(last >= 0, np.take_along_axis(acts, last, axis=-1), 0)
    return np.where(assigned, acts, np.maximum(carried, states - params.Q))


def threshold_action_map(params: ModelParams, tp: ThresholdPolicy) -> list[int]:
    """Expand a threshold vector to its full state -> action map.

    States covered by the intervals (thresholds[m-1], thresholds[m]] get
    action m; states beyond thresholds[M] are completed by
    `_complete_actions`.  InfeasibleThresholds names a threshold above K or
    else the first state given an infeasible action.
    """
    ts = np.array(tp.thresholds)
    if ts.size != params.M + 1:
        raise InfeasibleThresholds(
            f"threshold vector has {ts.size} entries, expected {params.M + 1}"
        )
    K = params.K
    if ts[-1] > K:
        raise InfeasibleThresholds(f"threshold {ts[ts > K][0]} exceeds K={K}")
    states = np.arange(K + 1)
    # in a nondecreasing vector, the action of state k is the number of
    # thresholds below k
    acts = _complete_actions(params, np.searchsorted(ts, states), states <= ts[-1])
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


def _action_matrix(params: ModelParams, acts: Sequence[int]) -> np.ndarray:
    """The deterministic policy matrix (K+1, M+1) of a state -> action map,
    or the matrices (N, K+1, M+1) of a stack of maps (N, K+1): one at
    (state, action), zero elsewhere."""
    acts = np.asarray(acts)
    f = np.zeros(acts.shape + (params.M + 1,))
    np.put_along_axis(f, acts[..., None], 1.0, axis=-1)
    return f


def threshold_to_policy(params: ModelParams, tp: ThresholdPolicy) -> Policy:
    """Materialize a ThresholdPolicy as a full Policy matrix."""
    acts = threshold_action_map(params, tp)
    f = _action_matrix(params, acts)
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


# The fields of a model, in the order a missing-field error names them.
PARAM_FIELDS = ("alpha", "A", "M", "Q", "power")


def param_fields(text: str) -> dict[str, str]:
    """The text of each key=value line; blank lines and '#' comments are
    skipped, and a line without '=' raises ModelError naming it."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ModelError(f"bad parameter line: {line!r}")
        key, val = line.split("=", 1)
        fields[key.strip()] = val.strip()
    return fields


def params_from_fields(fields: dict[str, str]) -> ModelParams:
    """The model of each field's text (power comma-separated), validated
    once.  ModelError names every missing field, else the first bad one."""
    missing = [key for key in PARAM_FIELDS if key not in fields]
    if missing:
        raise ModelError(f"missing parameters: {missing}")
    return validate_params(
        alpha=_parse("alpha", fields["alpha"], float),
        A=_parse("A", fields["A"], int),
        M=_parse("M", fields["M"], int),
        Q=_parse("Q", fields["Q"], int),
        power=parse_power(fields["power"]),
    )


def parse_param_text(text: str) -> ModelParams:
    """The model of a key=value parameter text, one field per line."""
    return params_from_fields(param_fields(text))

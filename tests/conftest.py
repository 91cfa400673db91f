import numpy as np
import pytest

from dpsched import validate_params


@pytest.fixture
def params_vi():
    """Reference instance used throughout: K=7, A=2, M=3, alpha=0.4."""
    return validate_params(alpha=0.4, A=2, M=3, Q=5, power=[0, 1, 4, 9])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_params(rng, max_enum=100_000, max_tries=100):
    """Random valid parameter set with a bounded deterministic enumeration."""
    from dpsched.policies import count_deterministic

    for _ in range(max_tries):
        A = int(rng.integers(1, 4))
        M = A + int(rng.integers(0, 3))
        Q = int(rng.integers(1, 7))
        alpha = float(rng.uniform(0.15, 0.9))
        # strictly increasing per-bit increments give a strictly convex table
        inc = np.sort(rng.uniform(0.5, 3.0, M)) + np.arange(M) * 1e-2 + 0.1
        power = [0.0] + list(np.cumsum(inc))
        params = validate_params(alpha, A, M, Q, power)
        if count_deterministic(params) <= max_enum:
            return params
    raise RuntimeError("could not draw parameters within the enumeration budget")


def deterministic_policies(params):
    """Every deterministic policy as a Policy, in enumeration order: each row
    of each block of `enumerate_deterministic` wrapped by
    `policy_from_actions`."""
    from dpsched.policies import enumerate_deterministic, policy_from_actions

    return [policy_from_actions(params, acts)
            for block in enumerate_deterministic(params) for acts in block]


def raised_threshold_reference(params, ts):
    """Per-threshold raise: each vector with one of thresholds[1..M] of `ts`
    raised by 1 that `ThresholdPolicy` and `threshold_to_policy` accept, as
    a ThresholdPolicy, in order of the raised index."""
    from dpsched.errors import InfeasibleThresholds
    from dpsched.model import ThresholdPolicy, threshold_to_policy

    raised = []
    for m in range(1, params.M + 1):
        cand = list(ts)
        cand[m] += 1
        try:
            nb = ThresholdPolicy(tuple(cand))
            threshold_to_policy(params, nb)
        except InfeasibleThresholds:
            continue
        raised.append(nb)
    return raised


EDGE_FAMILIES = ["alpha->0", "alpha->1", "Q=0", "M=A", "A=1"]


def edge_params(family, alpha, eps, A, extra_m, Q):
    """An instance of one of EDGE_FAMILIES, for Hypothesis: alpha = eps
    (alpha->0), alpha = 1 - eps or, for eps <= 1e-3, exactly 1 (alpha->1),
    Q = 0, M = A or A = 1; the other parameters as drawn."""
    if family == "alpha->0":
        alpha = eps
    elif family == "alpha->1":
        alpha = 1.0 - eps if eps > 1e-3 else 1.0
    elif family == "Q=0":
        Q = 0
    elif family == "M=A":
        extra_m = 0
    elif family == "A=1":
        A = 1
    M = A + extra_m
    power = [0.0] + [m * m + 0.25 * m for m in range(1, M + 1)]
    return validate_params(alpha, A, M, Q, power)

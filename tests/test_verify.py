"""The battery's library inputs and its random policy draws."""
import numpy as np
import pytest

from dpsched.errors import ModelError
from dpsched.model import Policy, feasible_actions, validate_params
from dpsched.verify import random_one_row_pair, random_policy, run_battery


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(trials=2.5), "trials must be an integer, got 2.5"),
    (dict(sim_slots=1000.5), "slots must be an integer, got 1000.5"),
    (dict(seed="7"), "seed must be an integer, got '7'"),
])
def test_non_integral_count_is_named_before_any_check(params_vi, monkeypatch, kwargs, message):
    # the walk is the first work the battery does
    monkeypatch.setattr("dpsched.verify.algorithm1", lambda params: pytest.fail("checks ran"))
    with pytest.raises(ModelError) as info:
        run_battery(params_vi, **kwargs)
    assert str(info.value) == message


def test_integral_floats_and_numpy_integers_pass():
    params = validate_params(0.5, 2, 2, 0, [0, 1, 3])
    lines = [[r.line() for r in run_battery(params, seed=s, trials=t, sim_slots=n)]
             for s, t, n in [(3, 2, 5000), (3.0, np.int64(2), np.float64(5000))]]
    assert lines[0] == lines[1]


def dirichlet_rows(params, rng, states):
    """The policy matrix whose rows `states` are Dirichlet draws over their
    feasible actions, drawn in that order."""
    f = np.zeros((params.K + 1, params.M + 1))
    for k in states:
        acts = list(feasible_actions(params, k))
        for m, w in zip(acts, rng.dirichlet(np.ones(len(acts)))):
            f[k, m] = w
    return f


def test_random_draws_are_one_dirichlet_row_per_state(params_vi):
    # random_policy draws every row in state order; random_one_row_pair
    # draws its base so, then a state with two feasible actions, then its row
    states = range(params_vi.K + 1)
    want = dirichlet_rows(params_vi, np.random.default_rng(5), states)
    assert np.array_equal(random_policy(params_vi, np.random.default_rng(5)).f,
                          Policy(params_vi, want).f)

    base, other, k = random_one_row_pair(params_vi, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    base_want = Policy(params_vi, dirichlet_rows(params_vi, rng, states)).f
    k_want = int(rng.choice([s for s in states if len(feasible_actions(params_vi, s)) >= 2]))
    other_want = base_want.copy()
    other_want[k_want] = dirichlet_rows(params_vi, rng, [k_want])[k_want]
    assert k == k_want
    assert np.array_equal(base.f, base_want)
    assert np.array_equal(other.f, Policy(params_vi, other_want).f)

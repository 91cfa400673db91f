"""Self-test of the benchmark itself.

Checks, with one short traced run per workload repeated twice:
  - every per-layer counter is nonzero on the workload meant to exercise it;
  - traced and untraced runs of each operation give bit-identical outputs
    (the traced run counts any difference as a failure);
  - call counts and count ratios repeat exactly between the two runs;
and that the same seed reproduces `sim` exactly while another seed changes
its inputs and output.

Usage, from the repository root:
    python3 perfbench/selftest.py
Exits 1 if any check fails.
"""
import sys

import run  # sets the BLAS thread count before numpy loads

# Counters each workload must move.  lp.iteration_limit.count is expected
# to stay 0 (a hit is an LP failure) and trace.overhead_share is not a counter.
EXERCISED = {
    "walk": ["model.threshold_to_policy.calls", "model.Policy.calls",
             "model.feasibility_mask.calls", "policies.neighbors_increase_threshold.calls",
             "mrp.evaluate.calls", "mrp.build_transition_enumerative.calls",
             "mrp.lu_factor.calls", "mrp.lu_solve.calls", "mrp.cache.hit_ratio",
             "pareto.algorithm1.calls", "pareto.walk.vertices"],
    "brute": ["model.Policy.calls", "policies.enumerate_deterministic.yielded",
              "mrp.evaluate.calls", "mrp.build_transition_enumerative.calls",
              "mrp.lu_factor.calls", "mrp.lu_solve.calls", "mrp.singular.share",
              "pareto.lower_convex_hull.calls"],
    "lp": ["lp.build_lp.calls", "lp.solve_simplex.calls", "lp.pivots.p50", "lp.pivots.max"],
    "sim": ["sim.simulate.calls", "sim.slots"],
}
NOT_EXERCISED = {"lp.iteration_limit.count", "trace.overhead_share"}
REPEATING = ("count", "share")  # units whose values must repeat, except self shares


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    declared = run.declared_metrics(1)
    covered = set(NOT_EXERCISED)
    for names in EXERCISED.values():
        for name in names:
            covered.add(name)
            layer = name.rsplit(".", 1)[0]
            if f"{layer}.self_share" in declared:
                covered.add(f"{layer}.self_share")
    expect(covered == set(declared), "every per-layer metric is assigned to a workload")

    for name, wl_cls in WORKLOADS.items():
        results = []
        for _ in range(2):
            r = run.Run(wl_cls(), seed=1)
            metrics = r.traced(seconds=1e-3)
            expect(not r.failures, f"{name}: traced run correct, traced == untraced "
                                   f"({r.attempted} checks, failures {r.failures[:2]})")
            results.append(metrics)
        first, second = results
        expect({k: u for k, (_, u) in first.items()} == declared,
               f"{name}: metrics match BENCHMARK.json")
        for metric in EXERCISED[name]:
            expect(first[metric][0] > 0, f"{name}: {metric} = {first[metric][0]} > 0")
            layer = metric.rsplit(".", 1)[0]
            if f"{layer}.self_share" in first:
                share = first[f"{layer}.self_share"][0]
                expect(share > 0, f"{name}: {layer}.self_share = {share:.4f} > 0")
        differ = [k for k, (v, u) in first.items()
                  if u in REPEATING and not k.endswith("_share") and v != second[k][0]]
        expect(not differ, f"{name}: counts repeat exactly between runs {differ}")

    sim = WORKLOADS["sim"]()
    inputs = sim.prepare(1)
    key1, key1_again, key2 = (sim.round_keys(sim.prepare(s), s, 0)[0] for s in (1, 1, 2))
    out1, out1_again, out2 = (repr(sim.run(inputs, k)) for k in (key1, key1_again, key2))
    expect(key1 == key1_again and out1 == out1_again, "sim: same seed reproduces exactly")
    expect(key1 != key2 and out1 != out2, "sim: another seed changes inputs and output")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
# End to end: solve the relaxation, watch the bounds close, and check the
# certificate against exhaustive enumeration.  Each checkpoint line shows
# the penalty beta of its iteration: it starts at the default and changes
# once, 8x, after iteration 20.

from scpsolve import brute_force, default_params, random_instance, solve

instance = random_instance(p=5, m_max=5, energy_range=(-10, 10), seed=7)
print("instance:", instance.name)
print("block sizes:", instance.partition.m, " total rotamers:", instance.partition.n0)

params = default_params(instance)
print(
    f"defaults: beta={params.beta:g} gamma={params.gamma} eps={params.epsilon:g} "
    f"max_iter={params.max_iter}"
)

report = solve(instance, params)
print(f"\nbound trace ({len(report.bound_history)} checkpoints):")
for rec in report.bound_history:
    print(
        f"  iter {rec.iteration:5d}   lower {rec.lower:12.6f}   "
        f"upper {rec.upper:12.6f}   via {rec.upper_source:20s} beta {rec.beta:g}"
    )

print(f"\ndead-end pairs pinned to 0 before iteration 1: {report.excluded_pairs}")
print(f"termination: {report.termination} after {report.iterations} iterations")
print(f"certified interval: [{report.lbd:.10f}, {report.ubd:.10f}]")
print(f"relative gap: {report.rel_gap:.3e}")
print(f"assignment: {report.assignment.choice}")

# The relaxation bounds must bracket the exact optimum, and a closed gap
# certifies that the rounded assignment is globally optimal.
oracle = brute_force(instance)
print(f"\nbrute force over {oracle.enumerated} assignments: {oracle.optimum:.10f}")
assert report.lbd - 1e-6 * (1 + abs(oracle.optimum)) <= oracle.optimum <= report.ubd
if report.certified:
    assert abs(report.ubd - oracle.optimum) <= 1e-6 * (1 + abs(oracle.optimum))
    print("certificate confirmed: the solver proved global optimality")

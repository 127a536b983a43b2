#!/usr/bin/env python3
"""Tour of the angle inequalities behind the copying bounds.

Four facts, each checked on concrete vectors and then hammered with a
seeded random sweep: the angle-difference bound, the spherical triangle
inequality (with its degenerate equality configuration), the overlap
version, and the statement that close states generate close statistics
for every measurement. Last, the corollary for two close unitaries.
"""

import numpy as np

from clonebound import (
    Projector,
    basis_state,
    coplanar_equality_witness,
    gate_approx_check,
    gate_bound,
    lemma1_check,
    lemma2_defect,
    lemma3_check,
    lemma4_check,
    lemma4_saturation_witness,
    random_projector,
    random_state,
    random_unitary,
    sweep_gate_approx,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_lemma4,
)

print(__doc__)
rng = np.random.default_rng(2026)

print("1. cos(angle(a, c)) <= cos(angle(a, b) - angle(b, c))")
a, b, c = (random_state(4, rng) for _ in range(3))
r = lemma1_check(a, b, c)
print(f"   random triplet in dim 4: lhs = {r.lhs:.5f} <= rhs = {r.rhs:.5f}")
phi, ups, psi = coplanar_equality_witness()
r = lemma1_check(phi, ups, psi)
print(f"   coplanar triplet at 0/20/50 degrees: slack = {r.slack:.1e} (tight)")
print()

print("2. spherical triangle inequality")
r = lemma2_defect(phi, ups, psi)
print(f"   same coplanar triplet: {np.degrees(r.lhs):.0f} deg <= "
      f"{np.degrees(r.rhs):.0f} deg, slack = {r.slack:.1e}")
print()

print("3. | |<t|a>|^2 - |<t|b>|^2 | <= sin(angle(a, b))")
e1, e2 = basis_state(2, 0), basis_state(2, 1)
r = lemma3_check(e1, e1, e2)
print(f"   orthogonal extreme: lhs = rhs = {r.rhs:.0f} (saturated)")
print()

print("4. probability deviations are bounded by sin(angle)")
delta = 0.7
p, f, g = lemma4_saturation_witness(delta)
r = lemma4_check(p, f, g)
print(f"   bisector projector at angle {delta}: lhs = {r.lhs:.5f} "
      f"= sin(delta) = {np.sin(delta):.5f}")
r = lemma4_check(random_projector(5, 2, rng), random_state(5, rng),
                 random_state(5, rng))
print(f"   random rank-2 projector in dim 5: lhs = {r.lhs:.5f} <= "
      f"rhs = {r.rhs:.5f}")
print()

print("5. close unitaries give close statistics")
u = random_unitary(4, rng)
v = np.linalg.qr(u + 0.05 * random_unitary(4, rng))[0]
sigma = random_state(4, rng)
r = gate_approx_check(u, v, sigma, random_projector(4, 2, rng))
print(f"   perturbed unitary: deviation {r.lhs:.2e} <= "
      f"eps*sqrt(1 - eps^2/4) = {r.rhs:.2e}")
print(f"   the bound never exceeds eps itself: gate_bound(1.0) = "
      f"{gate_bound(1.0):.5f}")
print()

print("seeded sweeps (10^4 trials each, dims 2..8):")
results = {}    # all five share one draw: the lemma 1 pass leaves the other four here
for sweep in (sweep_lemma1, sweep_lemma2, sweep_lemma3, sweep_lemma4,
              sweep_gate_approx):
    r = sweep(10_000, seed=7, results=results)
    print(f"   {r.name:<12} min slack {r.min_slack:+.3e}   "
          f"violations {r.violations}")

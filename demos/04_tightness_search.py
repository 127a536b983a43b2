#!/usr/bin/env python3
"""Numerical evidence that the error floors are tight.

A candidate output pair is realizable by a unitary machine exactly when
it preserves the inner product of the inputs. We parameterize all such
pairs in the 4-dimensional output space of a qubit pair, then

* minimize the absolute error with seeded L-BFGS-B restarts on angle
  coordinates, using an analytic gradient. The relative error is the
  absolute error over sin D, and sin D = sqrt(1 - z^4) is fixed by z, so
  this one search reads both floors at its best point: the minima land on
  the floors (which the fully asymmetric machine attains), and
* sample 100000 random realizable pairs: none ever dips below a floor,
  and every sample obeys the two chain inequalities.

Machines with equal error angles are searched without a constraint: by
chain 2, delta_phi + delta_psi >= D - d, the sum of squares
x_phi^2 + x_psi^2 is least only when both angles are (D - d)/2. Seeded
L-BFGS-B restarts minimize it with theta free and land on the symmetric
machine, whose relative error is a higher floor than the general one.
"""

from clonebound import (
    SearchConfig,
    closed_form_re_s,
    minimize_objective,
    random_cloner_sweep,
)

print(__doc__)

z = 0.5
cfg = SearchConfig(z=z, restarts=10, seed=2026)

print(f"overlap z = {z}")
out = minimize_objective("ae", cfg)
print(f"  one search, {out.trials} evaluations:")
for name, best, bound in (("AE", out.best_ae, out.bound_ae),
                          ("RE", out.best_re, out.bound_re)):
    print(f"  {name}: best = {best:.9f}, floor = {bound:.9f}, "
          f"gap = {best - bound:+.1e}")

sym = minimize_objective("sym", cfg)
print(f"  equal-angle restriction: best RE = {sym.best_re:.9f} vs "
      f"symmetric closed form {closed_form_re_s(z):.9f}")
print()

sweep = random_cloner_sweep(cfg, n=100_000)
print(f"random sweep of {sweep.trials} realizable pairs:")
print(f"  AE in [{sweep.ae_min:.5f}, {sweep.ae_max:.5f}], "
      f"mean {sweep.ae_mean:.5f}  ({sweep.floor_violations_ae} floor violations)")
print(f"  RE in [{sweep.re_min:.5f}, {sweep.re_max:.5f}], "
      f"mean {sweep.re_mean:.5f}  ({sweep.floor_violations_re} floor violations)")
print(f"  chain inequalities: {sweep.chain1_violations + sweep.chain2_violations} "
      f"violations, smallest slack {sweep.min_chain_slack:+.3f}")
print()
print("The same checks run from the command line:")
print("  clonebound verify --z 0.1,0.5,0.9 --restarts 20 --seed 1")

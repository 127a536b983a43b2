#!/usr/bin/env python3
"""Numerical evidence that the error floors are tight.

A candidate output pair is realizable by a unitary machine exactly when
it preserves the inner product of the inputs. We parameterize all such
pairs inside a 4-dimensional subspace around the product plane, then

* minimize both errors with seeded L-BFGS-B restarts on angle
  coordinates, using an analytic gradient: the minima land on the floors
  (which the fully asymmetric machine attains), and
* sample 100000 random realizable pairs: none ever dips below a floor,
  and every sample obeys the two chain inequalities.

Machines with equal error angles are searched without a constraint: by
chain 2, delta_phi + delta_psi >= D - d, the sum of squares
x_phi^2 + x_psi^2 is least only when both angles are (D - d)/2. Seeded
L-BFGS-B restarts minimize it with theta free and land on the symmetric
machine, whose relative error is a higher floor than the general one.
"""

import numpy as np

from clonebound import (
    SearchConfig,
    closed_form_re_s,
    minimize_objective,
    minimize_symmetric_re,
    random_cloner_sweep,
)

print(__doc__)

z = 0.5
cfg = SearchConfig(z=z, restarts=10, seed=2026)

print(f"overlap z = {z}")
for objective in ("ae", "re"):
    out = minimize_objective(objective, cfg)
    best = out.best_ae if objective == "ae" else out.best_re
    bound = out.bound_ae if objective == "ae" else out.bound_re
    print(f"  minimize {objective.upper():<2}: best = {best:.9f}, "
          f"floor = {bound:.9f}, gap = {best - bound:+.1e} "
          f"({out.trials} evaluations)")

sym = minimize_symmetric_re(cfg)
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

"""clonebound: angle geometry, error bounds, and optimal machines for
copying a known pair of pure quantum states.

The package is organized bottom-up:

* :mod:`clonebound.statespace`  complex vectors, tensor products,
  projectors, and the angle metric;
* :mod:`clonebound.bounds`      the analytic lower bounds and the angles d, D
  of the overlap z with their sines, for cloning, cloners and search;
* :mod:`clonebound.geometry`    the inequality suite relating angles to
  measurement statistics, with seeded random sweeps;
* :mod:`clonebound.cloning`     the output decomposition and the absolute
  and relative copying errors;
* :mod:`clonebound.cloners`     the symmetric, fully asymmetric, and
  basis-copier machines plus their closed-form error curves;
* :mod:`clonebound.search`      numerical verification that the bounds are
  tight floors;
* :mod:`clonebound.cli`         the ``clonebound`` command.
"""

import os as _os

# Every matrix here is 8x8 or smaller, too small for BLAS threads to pay
# off, and an idle OpenBLAS worker spins and takes CPU from the main
# thread. This must run before numpy first loads OpenBLAS; a thread count
# the user set wins.
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .statespace import (
    ATOL_ALG,
    ATOL_UNITARY,
    Projector,
    angle,
    apply_projector,
    basis_state,
    gram_schmidt_residual,
    inner,
    measure_prob,
    normalize,
    random_projector,
    random_state,
    random_unitary,
    tensor,
)
from .geometry import (
    InequalityReport,
    SweepResult,
    coplanar_equality_witness,
    gate_approx_check,
    gate_bound,
    lemma1_check,
    lemma2_defect,
    lemma3_check,
    lemma4_check,
    lemma4_saturation_witness,
    replay_sample,
    sweep_gate_approx,
    sweep_lemma1,
    sweep_lemma2,
    sweep_lemma3,
    sweep_lemma4,
)
from .cloning import (
    CloneAnalysis,
    ClonerResult,
    FactorDims,
    TwoStateSet,
    absolute_error,
    analyze_output,
    analyze_pair,
    inequality_chain,
    measurement_deviation,
    relative_error,
    unitarity_residual,
)
from .cloners import (
    build_asymmetric,
    build_symmetric,
    build_wootters_zurek,
    closed_form_re_s,
    closed_form_re_wz,
    materialize_unitary,
    plane_frame,
)
from .bounds import (
    RE_BOUND_ARGMAX,
    BoundCurve,
    ae_lower_bound,
    hb_bound,
    re_lower_bound,
    sample_curve,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SweepStats,
    minimize_objective,
    random_cloner_sweep,
    verify_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]

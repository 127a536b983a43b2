"""clonebound: angle geometry, error bounds, and optimal machines for
copying a known pair of pure quantum states.

The package is organized bottom-up:

* :mod:`clonebound.statespace`  complex vectors, tensor products,
  projectors, and the angle metric;
* :mod:`clonebound.geometry`    the inequality suite relating angles to
  measurement statistics, with seeded random sweeps;
* :mod:`clonebound.cloning`     the output decomposition and the absolute
  and relative copying errors;
* :mod:`clonebound.cloners`     the symmetric, fully asymmetric, and
  basis-copier machines plus their closed-form error curves;
* :mod:`clonebound.bounds`      the analytic lower bounds as functions of
  the overlap z;
* :mod:`clonebound.search`      numerical verification that the bounds are
  tight floors;
* :mod:`clonebound.cli`         the ``clonebound`` command.
"""

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
    operator_norm,
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
    icasmin_form,
    re_lower_bound,
    sample_curve,
)
from .search import (
    SearchConfig,
    SearchOutcome,
    SweepStats,
    VerifyRecord,
    make_frame,
    minimize_objective,
    minimize_symmetric_re,
    parameterize_pair,
    random_cloner_sweep,
    verify_point,
    warm_start_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]

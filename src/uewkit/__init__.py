"""uewkit: separability curves and ultrafine entanglement witnesses.

Certifies quantum entanglement from a single fixed few-outcome measurement
device per party: the measured constraint expectation restricts the candidate
separable states, the test-operator bound is re-optimized over that slice
(the separability curve), and any measured point strictly above the curve
certifies entanglement.  The partial-transpose test (`is_ppt`) and the
independent oracles of the test suite (`tests/oracles.py`: a brute-force grid
search and decimal closed forms) cross-validate every bound.
"""

from ._optimize import BoundResult, OptimizerSettings
from .multipartite import (
    MultiBound,
    Partition,
    closed_form_bound,
    multi_operators,
    numeric_partition_bound,
)
from .povm import (
    AdmissibilityReport,
    Effect,
    Povm,
    ThreeOutcomeParams,
    ThreeOutcomePovm,
    build_three_outcome,
    chi_vectors,
    povm_from_dict,
    povm_to_dict,
    product_operator,
    uew_admissibility_check,
)
from .qcore import (
    CapacityError,
    DensityMatrix,
    HermitianOperator,
    ProductState,
    PureState,
    commutator_norm,
    expectation,
    identity,
    is_ppt,
    min_eigenvalue,
    partial_transpose,
    pure_density,
    tensor,
)
from .sampler import (
    CountsTable,
    EstimateResult,
    estimate,
    load_counts,
    sample_product_state,
    save_counts,
    scatter,
    simulate_counts,
    stream,
)
from .witness import (
    CurvePoint,
    SeparabilityCurve,
    TightenResult,
    Verdict,
    attainable_constraint_range,
    constrained_bound,
    constrained_pure_state_sup,
    curve_from_csv,
    curve_to_csv,
    detect,
    entangled_max,
    optimal_entangled_state,
    product_constrained_bound,
    product_sew_bound,
    semianalytic_pair_bound,
    separability_curve,
    sew_bound,
    tighten,
    witness_from_bound,
)

__version__ = "0.1.0"

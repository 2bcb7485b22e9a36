"""Correlation measures between measured and counterfactual unmeasured
outcomes, for spin pairs and generalized no-signalling boxes.

Analytic results come from closed forms; every sampled quantity can be
cross-checked by a seeded Monte Carlo estimate.
"""
from types import ModuleType as _ModuleType

from .counterfactual import (
    binary_entropy,
    info_leakage,
    max_info_direction,
    rho_conditional_independence,
)
from .errors import (
    DegenerateSequenceError,
    DomainError,
    NotOrthogonalError,
    ValidationError,
)
from .montecarlo import (
    EmpiricalEstimate,
    SampleConfig,
    shapes_rho,
    substream,
)
from .nsbox import (
    BoxClass,
    NsBox,
    chsh_class,
    chsh_s_e,
    chsh_s_ns,
    classify_box,
    correlator,
    from_correlators,
    from_labeled_dict,
    isotropic_parameter,
    make_isotropic,
    rho_ci_ns,
    target_probability,
    validate_no_signalling,
)
from .scenarios import (
    ResultRow,
    Scenario,
    builtin_scenarios,
    load_scenario_file,
    run,
    validate_scenario,
)
from .spin import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    Direction,
    correlation,
)

__version__ = "0.4.8"

# Every public name imported above, and nothing else.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)

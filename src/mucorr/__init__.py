"""Correlation measures between measured and counterfactual unmeasured
outcomes, for spin pairs and generalized no-signalling boxes.

Analytic results come from closed forms; every sampled quantity can be
cross-checked by a seeded Monte Carlo estimate.
"""
from types import ModuleType as _ModuleType

from .counterfactual import (
    CounterfactualReport,
    NonlocalityVerdict,
    binary_entropy,
    info_leakage,
    info_scan,
    max_info_direction,
    nonlocality_verdict,
    overlap_lower_bound,
    pearson_pm1,
    report_for_option,
    rho_ci_general_direction,
    rho_conditional_independence,
    rho_min_quantum,
)
from .errors import (
    DegenerateSequenceError,
    DomainError,
    LengthMismatchError,
    NotOrthogonalError,
    ValidationError,
)
from .montecarlo import (
    EmpiricalEstimate,
    SampleConfig,
    estimate_ci_correlation,
    estimate_coin_correlation,
    estimate_ns_pair,
    estimate_pair_correlation,
    estimate_shapes_correlation,
    shapes_rho,
    substream,
)
from .nsbox import (
    BoxClass,
    BoxClassification,
    NsBox,
    chsh_e_form,
    chsh_s_e,
    chsh_s_ns,
    ci_product,
    classify_box,
    correlator,
    from_correlators,
    from_labeled_dict,
    isotropic_parameter,
    make_isotropic,
    pr_box,
    rho_ci_ns,
    rho_min_ns,
    target_probability,
    to_labeled_dict,
    validate_no_signalling,
)
from .scenarios import (
    ResultRow,
    Scenario,
    builtin_scenarios,
    load_scenario_file,
    run,
    sweep_rows,
    validate_scenario,
)
from .spin import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    ChshClass,
    Direction,
    SettingsQuad,
    chsh_s,
    classify_chsh,
    correlation,
    match_probability,
    modified_settings_55_35,
    standard_chsh_settings,
)

__version__ = "0.2.0"

# Every public name imported above, and nothing else.
__all__ = sorted(
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
)

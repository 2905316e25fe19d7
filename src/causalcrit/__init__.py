"""Discrete structural-causal-model engine for criticality analysis."""

from .context import (
    CausalRelation,
    ConstraintExpression,
    ContextStatement,
    PhenomenonBinding,
    PropertyRef,
    Violation,
    validate_causal_relation,
    validate_record,
)
from .engine import (
    SafetyPrinciple,
    SafetyPrincipleReport,
    evaluate_safety_principle,
    expectation,
    plan_effect,
)
from .graph import (
    CausalStructure,
    PathQueryResult,
    ancestors,
    backdoor_admissible,
    build_structure,
    d_separated,
    descendants,
    enumerate_adjustment_sets,
)
from .indicators import (
    IndicatorReport,
    ModelPair,
    ace,
    causal_influence,
    kl_divergence,
    rce,
    rho1,
    rho2,
    rho3,
    sigma,
)
from .io import load_dataset, load_field, load_model, load_trajectory, save_dataset, save_model
from .metrics import (
    AccelField,
    DrivingTask,
    Trajectory,
    aggregate,
    alat_min,
    alat_req_dt,
    along_min,
    along_req_dt,
    btn_dt,
    check_bins,
    discretize_metric,
    stn_dt,
    threat_numbers,
)
from .model import (
    Cpd,
    Dataset,
    DiscreteModel,
    VariableSpec,
    build_model,
    estimate_cpds,
    make_cpd,
    sample,
)

__version__ = "0.1.0"

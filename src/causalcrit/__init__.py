"""Discrete structural-causal-model engine for criticality analysis.

The public names below resolve on first use (PEP 562), each from the
submodule that defines it, so ``import causalcrit`` loads no numpy; the
numeric layers load when a name from one of them is first read.
"""

from importlib import import_module as _import_module

# Submodule -> the public names it defines. The submodules themselves are
# attributes of the package as well.
_SUBMODULES = {
    "context": ("CausalRelation", "ConstraintExpression", "ContextStatement", "PhenomenonBinding",
                "PropertyRef", "Violation", "validate_causal_relation", "validate_record"),
    "engine": ("SafetyPrinciple", "SafetyPrincipleReport", "evaluate_safety_principle", "expectation",
               "plan_effect"),
    "errors": (),
    "graph": ("CausalStructure", "PathQueryResult", "ancestors", "backdoor_admissible",
              "build_structure", "d_separated", "descendants", "enumerate_adjustment_sets"),
    "indicators": ("IndicatorReport", "ModelPair", "ace", "causal_influence", "kl_divergence", "rce",
                   "rho1", "rho2", "rho3", "sigma"),
    "io": ("load_dataset", "load_field", "load_model", "load_trajectory", "save_dataset", "save_model"),
    "metrics": ("AccelField", "DrivingTask", "Trajectory", "aggregate", "alat_min", "alat_req_dt",
                "along_min", "along_req_dt", "btn_dt", "check_bins", "discretize_metric", "stn_dt",
                "threat_numbers"),
    "model": ("Dataset", "estimate_cpds", "make_cpd", "sample"),
    "variables": ("Cpd", "DiscreteModel", "VariableSpec", "build_model"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_EXPORTS})

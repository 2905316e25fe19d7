"""The package namespace: every public name resolves on first use to the
object its submodule defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalcrit

# Each name the package exports, with the submodule it has always been
# importable from.
EXPORTS = {
    "context": [
        "CausalRelation", "ConstraintExpression", "ContextStatement", "PhenomenonBinding",
        "PropertyRef", "Violation", "validate_causal_relation", "validate_record",
    ],
    "engine": [
        "SafetyPrinciple", "SafetyPrincipleReport", "evaluate_safety_principle", "expectation",
        "plan_effect",
    ],
    "graph": [
        "CausalStructure", "PathQueryResult", "ancestors", "backdoor_admissible", "build_structure",
        "d_separated", "descendants", "enumerate_adjustment_sets",
    ],
    "indicators": [
        "IndicatorReport", "ModelPair", "ace", "causal_influence", "kl_divergence", "rce", "rho1",
        "rho2", "rho3", "sigma",
    ],
    "io": ["load_dataset", "load_field", "load_model", "load_trajectory", "save_dataset", "save_model"],
    "metrics": [
        "AccelField", "DrivingTask", "Trajectory", "aggregate", "alat_min", "alat_req_dt",
        "along_min", "along_req_dt", "btn_dt", "check_bins", "discretize_metric", "stn_dt",
        "threat_numbers",
    ],
    "model": [
        "Cpd", "Dataset", "DiscreteModel", "VariableSpec", "build_model", "estimate_cpds", "make_cpd",
        "sample",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_exports_are_the_submodule_objects():
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"causalcrit.{module}")
        for name in names:
            assert getattr(causalcrit, name) is getattr(submodule, name), name


def test_all_lists_exactly_the_exports():
    assert sorted(causalcrit.__all__) == NAMES


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from causalcrit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_dir_lists_the_exports():
    assert set(NAMES) <= set(dir(causalcrit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        causalcrit.no_such_name
    assert not hasattr(causalcrit, "joint_table")


def test_version_is_unchanged():
    assert causalcrit.__version__ == "0.1.0"


def test_submodules_are_attributes_after_a_plain_import():
    # ``import causalcrit`` imports no submodule, yet each layer stays
    # reachable as an attribute of the package.
    src_dir = str(Path(causalcrit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import causalcrit, types\n"
        "for m in ('context', 'engine', 'errors', 'graph', 'indicators', 'io', 'metrics', 'model'):\n"
        "    assert isinstance(getattr(causalcrit, m), types.ModuleType), m\n"
        "assert callable(causalcrit.model.joint_tables)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_only_the_driver_module_names_joint_tables():
    # model._run is the one caller of joint_tables: no other module imports,
    # calls or otherwise names it in code.
    naming = set()
    for path in sorted(Path(causalcrit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "joint_tables" or getattr(node, "asname", None) == "joint_tables":
                naming.add(path.name)
    assert naming == {"model.py"}

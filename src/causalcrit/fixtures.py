"""Shipped example artifacts: the heavy-rain model pair and the friction relation.

The heavy-rain pair is a worked comparison case: an assumed reality (season
and climate drive precipitation; precipitation and ego velocity drive
braking distance) and an expert model of it that wires ego velocity instead
of climate into the precipitation variable. Both share the same probability
tables, so the phenomenon marginals agree while the joint dependencies
differ, which is exactly what the divergence indicators are meant to expose.

The friction relation is structure-only: 39 cataloged variables plus the two
slip quantities named by its reference adjustment set, with edges
reconstructed from the variable semantics under the constraint that said
adjustment set is admissible. The edge list is a reconstruction, not ground
truth; ``docs/fixtures.md`` gives the reading behind each node's parents.
The braking-distance codes are Short = 1, Long = 0; the opposite assignment
flips the effect signs and breaks the shipped indicator values.

The JSON files under ``data/`` are the only source of truth; the test suite
pins them by sha256.
"""

from __future__ import annotations

import functools
from pathlib import Path

from .context import CausalRelation
from .errors import InvalidQuery
from .io import parse_model_text
from .variables import DiscreteModel

__all__ = ["FIXTURE_IDS", "fixture", "fixture_path", "fixture_text"]

FIXTURE_IDS = ("heavy-rain-reality", "heavy-rain-model", "friction-relation")

_FILES = {
    "heavy-rain-reality": "heavy_rain_reality.json",
    "heavy-rain-model": "heavy_rain_model.json",
    "friction-relation": "friction_relation.json",
}


def fixture_path(fixture_id: str) -> Path:
    if fixture_id not in _FILES:
        raise InvalidQuery(f"unknown fixture {fixture_id!r}; choose from {FIXTURE_IDS}")
    return Path(__file__).parent / "data" / _FILES[fixture_id]


def fixture_text(fixture_id: str) -> str:
    return fixture_path(fixture_id).read_text(encoding="utf-8")


@functools.cache
def fixture(fixture_id: str) -> tuple[CausalRelation, DiscreteModel]:
    """Load a shipped fixture through the regular model parser, once per
    process: relations and models are immutable, so callers share them."""
    return parse_model_text(fixture_text(fixture_id))


# Reference nine-variable back-door set for (Coefficient of friction, metric).
FRICTION_ADJUSTMENT_SET = (
    "Ego tire temperature",
    "Planned steering",
    "Ego vehicle longitudinal wheel slip",
    "Wet grip",
    "Tire type",
    "Planned acceleration",
    "Tire pressure",
    "Forward velocity of ego",
    "Ego vehicle slip angle",
)

# In-vehicle measurable pool used when scoping adjustment-set enumeration.
FRICTION_MEASURABLE_POOL = FRICTION_ADJUSTMENT_SET + (
    "Hub velocity of ego",
    "Maximal braking torque",
    "Ego vehicle mass",
)

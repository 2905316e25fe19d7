"""Seeded input generation for the three benchmark workloads.

Every input is a pure function of ``(workload, seed)``: the generators use
their own ``random.Random`` and write model files as plain JSON, so the
inputs do not depend on the code under test. Requests cycle through a pool
of ``POOL_SIZE`` inputs: enough distinct inputs that the medians of a run do
not hinge on a few of them, few enough that each reference is computed
only once per pooled input.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("indicators", "adjust", "pipeline")
POOL_SIZE = 99

# indicators: n binary nodes V00..V15 in a chain V(i-1) -> V(i) plus at most
# one extra parent per node drawn from lower indices. The chain makes X a
# proper ancestor of the metric and gives every set node an out-edge, so
# every request builds the same number of full 65,536-cell joints.
N_NODES = 16
X_INDEX = 8
SET_SIZE = 4
P_LOW, P_HIGH = 0.05, 0.95
CANDIDATE_SHIFT = 0.15

FRICTION_X = "Coefficient of friction"
FRICTION_Y = "Aggregate of BTN_DT and STN_DT"
# The in-vehicle measurable pool of the friction relation (the program's
# FRICTION_MEASURABLE_POOL), spelled out so a change to the program cannot
# change the benchmark's inputs.
FRICTION_POOL = (
    "Ego tire temperature",
    "Planned steering",
    "Ego vehicle longitudinal wheel slip",
    "Wet grip",
    "Tire type",
    "Planned acceleration",
    "Tire pressure",
    "Forward velocity of ego",
    "Ego vehicle slip angle",
    "Hub velocity of ego",
    "Maximal braking torque",
    "Ego vehicle mass",
)
# Each block of three requests leaves out a different third of the pool, so
# every variable is a candidate in exactly two requests of three. The cost
# of a scan depends on which variables it holds (without "Hub velocity of
# ego" it is about a fifth cheaper), so a free draw would move the medians
# of a run with the mix it happened to draw.
ADJUST_GROUPS = 3
ADJUST_MAX = 8192

PIPELINE_ROWS = 10000
PIPELINE_SET = ("V1", "V2", "X")


def _node(i: int) -> str:
    return f"V{i:02d}"


def _prob(rng: random.Random) -> float:
    return round(rng.uniform(P_LOW, P_HIGH), 6)


def random_structure(rng: random.Random) -> dict[str, list[str]]:
    """Name-sorted parent lists of a chain plus random skip edges."""
    parents: dict[str, list[str]] = {_node(0): []}
    for i in range(1, N_NODES):
        pa = {i - 1}
        if i >= 2 and rng.random() < 0.75:
            pa.add(rng.randrange(i - 1))
        parents[_node(i)] = [_node(j) for j in sorted(pa)]
    return parents


def random_tables(rng: random.Random, parents: dict[str, list[str]]) -> dict[str, list[float]]:
    """P(node = second label | parent configuration), one entry per row."""
    return {v: [_prob(rng) for _ in range(2 ** len(pa))] for v, pa in parents.items()}


def perturbed_tables(rng: random.Random, tables: dict[str, list[float]]) -> dict[str, list[float]]:
    out = {}
    for v, rows in tables.items():
        shifted = [p + rng.uniform(-CANDIDATE_SHIFT, CANDIDATE_SHIFT) for p in rows]
        out[v] = [round(min(P_HIGH, max(P_LOW, p)), 6) for p in shifted]
    return out


def model_json(parents: dict[str, list[str]], tables: dict[str, list[float]]) -> dict:
    """Model-file payload (format_version 1) for a binary network."""
    x, metric = _node(X_INDEX), _node(N_NODES - 1)
    variables = []
    for v in parents:
        domain = ["notCP", "CP"] if v == x else ["low", "high"]
        variables.append(
            {"name": v, "domain": domain, "codes": [0, 1], "unit": "1", "range": "", "latent": False}
        )
    cpds = [
        {"child": v, "parents": pa, "table": [[round(1.0 - p, 6), p] for p in tables[v]]}
        for v, pa in parents.items()
    ]
    return {
        "format_version": 1,
        "variables": variables,
        "edges": sorted([p, v] for v, pa in parents.items() for p in pa),
        "bidirected": [],
        "phenomenon": {"variable": x, "cp_label": "CP"},
        "metric": {"variable": metric},
        "context": [],
        "cpds": cpds,
    }


def _indicator_pair(rng: random.Random) -> dict:
    parents = random_structure(rng)
    ref = random_tables(rng, parents)
    cand = perturbed_tables(rng, ref)
    pool = [v for v in parents if v not in (_node(X_INDEX), _node(N_NODES - 1))]
    node_set = sorted(rng.sample(pool, SET_SIZE))
    return {"reference": model_json(parents, ref), "candidate": model_json(parents, cand), "set": node_set}


def _adjust_block(rng: random.Random) -> list[list[str]]:
    """Three candidate lists of 8, each leaving out one group of a seeded partition."""
    order = rng.sample(FRICTION_POOL, len(FRICTION_POOL))
    size = len(order) // ADJUST_GROUPS
    groups = [order[g * size:(g + 1) * size] for g in range(ADJUST_GROUPS)]
    return [[v for g in groups if g is not left for v in g] for left in groups]


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files under ``workdir``; return the manifest.

    The manifest lists one entry per pooled input (file names relative to
    ``workdir``) and carries the sha256 of everything written, so two runs
    can be shown to have used the same inputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(f"{workload}:{seed}".encode())
    entries = []
    for k in range(POOL_SIZE):
        if workload == "indicators":
            pair = _indicator_pair(rng)
            entry = {"set": pair["set"]}
            for role in ("reference", "candidate"):
                path = workdir / f"{k:03d}-{role}.json"
                text = json.dumps(pair[role], sort_keys=True, indent=1) + "\n"
                path.write_text(text, encoding="utf-8")
                digest.update(text.encode())
                entry[role] = path.name
        elif workload == "adjust":
            if k % ADJUST_GROUPS == 0:
                block = _adjust_block(rng)
            entry = {"candidates": block[k % ADJUST_GROUPS]}
        else:
            entry = {"seed_reference": rng.randrange(2**31), "seed_candidate": rng.randrange(2**31)}
        entries.append(entry)
    body = json.dumps(entries, sort_keys=True)
    digest.update(body.encode())
    manifest = {
        "workload": workload,
        "seed": seed,
        "entries": entries,
        "sha256": digest.hexdigest(),
    }
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest

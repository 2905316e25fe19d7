"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; a failing criterion shows up as a regular pytest failure.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from causalcrit.cli import main as cli_main
from causalcrit.context import PhenomenonBinding
from causalcrit.engine import plan_effect
from causalcrit.fixtures import FRICTION_ADJUSTMENT_SET, fixture
from causalcrit.graph import (
    backdoor_admissible,
    build_structure,
    d_separated,
    enumerate_adjustment_sets,
)
from causalcrit.indicators import ModelPair, ace, rce, rho1, rho2, rho3, sigma
from causalcrit.io import load_model, save_model
from causalcrit.metrics import (
    AccelField,
    DrivingTask,
    Trajectory,
    along_req_dt,
    alat_req_dt,
    btn_dt,
    stn_dt,
)
from causalcrit.model import VariableSpec, build_model, estimate_cpds, make_cpd, sample

from oracles import brute_joint, brute_truncated, conditionally_independent

CP = PhenomenonBinding(variable="X", cp_label="CP")


def _passed(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_heavy_rain_reproduction(reality_model, candidate_model):
    start = time.perf_counter()
    assert ace(reality_model, CP, "phi").value == pytest.approx(0.2, abs=1e-9)
    assert rce(reality_model, CP, "phi").value == pytest.approx(1.5, abs=1e-9)
    pair = ModelPair(reference=reality_model, candidate=candidate_model)
    assert rho1(pair, CP).value == pytest.approx(0.0, abs=1e-12)
    report = rho2(pair, ["V1", "V2", "X"])
    assert report.metadata["kl_order"] == "candidate||reference"
    assert report.metadata["log_base"] == "nats"
    assert report.value == pytest.approx(0.0141, abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"ACE=0.2 RCE=1.5 rho1=0 rho2={report.value:.5f} in {elapsed:.3f}s")


def test_criterion_2_sigma_consistent_encoding(reality_model):
    report = sigma(reality_model, CP, "phi")
    assert report.value == pytest.approx(0.2509, abs=5e-4)
    assert report.value == pytest.approx(1 - 0.4 / 0.534, abs=1e-9)
    # the 0.1416 figure mixes a Short=1 numerator with a Long=1 denominator;
    # asserted as arithmetic, not as a target
    mixed_encoding_figure = 1 - 0.4 / 0.466
    assert mixed_encoding_figure == pytest.approx(0.1416, abs=1e-4)
    _passed(2, f"sigma={report.value:.4f}; 0.1416 arises only from mixed encodings")


def test_criterion_3_rho3_both_semantics(reality_model, candidate_model):
    same = ModelPair(reference=reality_model, candidate=reality_model)
    for nodes in (["V1", "V2", "X"], ["V2", "X", "phi"]):
        assert rho3(same, nodes, CP).value == pytest.approx(0.0, abs=1e-12)
    pair = ModelPair(reference=reality_model, candidate=candidate_model)
    full = rho3(pair, ["V1", "V2", "X"], CP)
    assert full.value == pytest.approx(0.0135, abs=5e-4)
    restricted = rho3(pair, ["V1", "V2", "X"], CP, restrict_to_set=True)
    assert restricted.value == pytest.approx(0.0190, abs=5e-4)
    _passed(
        3,
        f"rho3 full={full.value:.4f} restricted={restricted.value:.4f}; "
        "the alternative figure 0.0181 is reproduced by neither semantics",
    )


def _random_markovian_binary(rng, max_nodes):
    n = rng.randint(2, max_nodes)
    names = [f"N{i}" for i in range(n)]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    s = build_structure(names, edges)
    specs = {
        name: VariableSpec(name=name, domain=("a", "b"), codes=(0.0, 1.0))
        for name in names
    }
    cpds = []
    for name in names:
        parents = tuple(sorted(s.parents(name)))
        table = []
        for _ in range(2 ** len(parents)):
            u = rng.uniform(0.1, 0.9)
            table.append([u, 1 - u])
        cpds.append(make_cpd(name, parents, table, specs))
    return build_model(s, specs, cpds)


def test_criterion_4_route_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240615)
    for _ in range(200):
        m = _random_markovian_binary(rng, max_nodes=5)
        names = sorted(m.instantiated)
        x = rng.choice(names)
        target = rng.choice([n for n in names if n != x])
        label = rng.choice(("a", "b"))
        do = {x: [label]}
        routes = {
            "truncated": plan_effect(m, do, target, "truncated")[1][0],
            "parents": plan_effect(m, do, target, "parents")[1][0],
            "oracle": brute_truncated(m, {x: label}, target),
        }
        for adj in enumerate_adjustment_sets(m.structure, x, target, max_count=64):
            routes[f"backdoor:{sorted(adj)}"] = plan_effect(
                m, do, target, "backdoor", adj
            )[1][0]
        for (ka, va), (kb, vb) in itertools.combinations(routes.items(), 2):
            for c in ("a", "b"):
                assert abs(va[c] - vb[c]) < 1e-9, (ka, kb)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(4, f"200 models, all routes and the surgered-joint oracle agree ({elapsed:.1f}s)")


def test_criterion_5_dsep_soundness_completeness():
    rng = random.Random(20240616)
    for _ in range(50):
        n = rng.randint(3, 7)
        names = [f"N{i}" for i in range(n)]
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        s = build_structure(names, edges)
        models = [
            _instantiate(s, names, rng) for _ in range(20)
        ]
        joints = [brute_joint(m) for m in models]
        for _ in range(6):
            picks = rng.sample(names, k=min(len(names), rng.randint(2, 4)))
            x, y, z = [picks[0]], [picks[1]], picks[2:]
            separated = d_separated(s, x, y, z).separated
            ci_flags = [
                conditionally_independent(joint_names, joint, x, y, z, tol=1e-9)
                for joint_names, joint in joints
            ]
            if separated:
                assert all(ci_flags), (edges, x, y, z)
            else:
                assert not all(ci_flags), (edges, x, y, z)
    _passed(5, "d-separation matches exact conditional independence on 50 DAGs x 20 models")


def _instantiate(s, names, rng):
    specs = {
        name: VariableSpec(name=name, domain=("a", "b"), codes=(0.0, 1.0))
        for name in names
    }
    cpds = []
    for name in names:
        parents = tuple(sorted(s.parents(name)))
        table = []
        for _ in range(2 ** len(parents)):
            u = rng.uniform(0.1, 0.9)
            table.append([u, 1 - u])
        cpds.append(make_cpd(name, parents, table, specs))
    return build_model(s, specs, cpds)


def test_criterion_6_estimation_consistency(reality_model):
    ds = sample(reality_model, 100_000, seed=20240617)
    est = estimate_cpds(reality_model.structure, reality_model.specs, ds)
    assert est.instantiated == reality_model.instantiated
    worst = 0.0
    for node in sorted(reality_model.instantiated):
        true = reality_model.cpds[node].table
        got = est.cpds[node].table
        tv = 0.5 * np.abs(true - got).sum(axis=1).max()
        worst = max(worst, float(tv))
        assert tv <= 0.02, node
    est_ace = ace(est, CP, "phi").value
    assert est_ace == pytest.approx(0.2, abs=0.02)
    _passed(6, f"max CPD row TV {worst:.4f} <= 0.02; re-estimated ACE {est_ace:.4f}")


def test_criterion_7_friction_fixture(friction_relation):
    from causalcrit.context import validate_causal_relation

    start = time.perf_counter()
    relation, model = friction_relation
    assert validate_causal_relation(relation) == []
    assert backdoor_admissible(
        model.structure,
        FRICTION_ADJUSTMENT_SET,
        relation.phenomenon.variable,
        relation.metric,
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(7, f"friction relation valid; reference 9-set admissible in {elapsed:.3f}s")


def test_criterion_8_metric_analytic_checks():
    dt, v0, decel = 0.05, 20.0, 3.0
    t = np.arange(0.0, 4.0 + dt / 2, dt)
    braking = Trajectory(t=t, x=v0 * t - 0.5 * decel * t * t, y=np.zeros_like(t))
    task = DrivingTask(trajectories=(braking,), t_start=0.0, horizon=4.0)
    req = along_req_dt(task)
    assert req == pytest.approx(-decel, rel=0.01)

    v, radius = 10.0, 50.0
    omega = v / radius
    arc = Trajectory(
        t=t, x=radius * np.cos(omega * t), y=radius * np.sin(omega * t)
    )
    arc_task = DrivingTask(trajectories=(arc,), t_start=0.0, horizon=4.0)
    lat = alat_req_dt(arc_task)
    assert lat == pytest.approx(v * v / radius, rel=0.02)

    extent, cells = 300.0, 40
    field = AccelField(
        x0=-extent, y0=-extent, dx=2 * extent / cells, dy=2 * extent / cells,
        long_avail=np.full((cells, cells), -8.0),
        lat_avail=np.full((cells, cells), 5.0),
    )
    straight = Trajectory(t=t, x=8.0 * t, y=np.zeros_like(t))
    straight_task = DrivingTask(trajectories=(straight,), t_start=0.0, horizon=4.0)
    assert btn_dt(straight_task, field) == 0.0
    assert stn_dt(straight_task, field) == 0.0

    exhausted = AccelField(
        x0=-extent, y0=-extent, dx=2 * extent / cells, dy=2 * extent / cells,
        long_avail=np.full((cells, cells), req),
        lat_avail=np.full((cells, cells), 5.0),
    )
    assert btn_dt(task, exhausted) == pytest.approx(1.0, abs=1e-9)
    _passed(8, f"a_long,req={req:.3f}, a_lat,req={lat:.3f}, straight=0/0, req=avail ratio 1")


def test_criterion_9_determinism(tmp_path, capsys, heavy_rain_reality):
    matrix = [
        ["validate", "heavy-rain-reality", "--format", "json"],
        ["validate", "heavy-rain-model", "--format", "json"],
        ["validate", "friction-relation", "--format", "json"],
        ["adjust", "heavy-rain-model", "-x", "X", "-y", "phi", "--format", "json"],
        ["effect", "heavy-rain-reality", "--do", "X=CP", "--target", "phi",
         "--format", "json"],
        ["effect", "heavy-rain-reality", "--do", "X=notCP", "--target", "phi",
         "--route", "parents", "--format", "json"],
        ["indicators", "heavy-rain-reality", "heavy-rain-model",
         "--set", "V1,V2,X", "--format", "json"],
        ["sp", "heavy-rain-reality", "--sp", "V2=Slow", "--format", "json"],
        ["sp", "heavy-rain-reality", "--sp", "X=notCP", "--format", "json"],
    ]
    for argv in matrix:
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        assert first == second, argv
        json.loads(first)

    relation, model = heavy_rain_reality
    once = tmp_path / "once.json"
    save_model(once, relation, model)
    relation2, model2 = load_model(once)
    twice = tmp_path / "twice.json"
    save_model(twice, relation2, model2)
    assert once.read_bytes() == twice.read_bytes()
    _passed(9, f"{len(matrix)} CLI invocations byte-stable; save-load-save fixed point")

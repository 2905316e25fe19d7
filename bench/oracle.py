"""Reference values that the correctness gate compares the program against.

Nothing here calls the code under test. Joints are ``np.einsum``
contractions over the CPD factors instead of the program's dense
broadcasting product, rho3 uses the family-local form of causal influence
instead of two cut joints, and d-separation uses the moral ancestral graph
instead of the program's reachability walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Net:
    """A Markovian categorical network: name-sorted parents, one table per node."""

    names: tuple[str, ...]
    domains: dict[str, tuple[str, ...]]
    codes: dict[str, tuple[float, ...]]
    parents: dict[str, tuple[str, ...]]
    tables: dict[str, np.ndarray]  # (parent configurations, child cardinality)
    phenomenon: str
    cp_label: str
    metric: str

    def axis(self, node: str) -> int:
        return self.names.index(node)

    def card(self, node: str) -> int:
        return len(self.domains[node])

    def factor(self, node: str) -> tuple[np.ndarray, list[int]]:
        shape = [self.card(p) for p in self.parents[node]] + [self.card(node)]
        axes = [self.axis(p) for p in self.parents[node]] + [self.axis(node)]
        return self.tables[node].reshape(shape), axes


def structure_of(payload: dict) -> dict:
    """Node names, domains, codes and parents of a model-file payload."""
    names = tuple(sorted(v["name"] for v in payload["variables"]))
    parents = {n: [] for n in names}
    for a, b in payload["edges"]:
        parents[b].append(a)
    return {
        "names": names,
        "domains": {v["name"]: tuple(v["domain"]) for v in payload["variables"]},
        "codes": {v["name"]: tuple(float(c) for c in v["codes"]) for v in payload["variables"]},
        "parents": {n: tuple(sorted(p)) for n, p in parents.items()},
        "phenomenon": payload["phenomenon"]["variable"],
        "cp_label": payload["phenomenon"]["cp_label"],
        "metric": payload["metric"]["variable"],
    }


def net_from_payload(payload: dict) -> Net:
    tables = {c["child"]: np.asarray(c["table"], dtype=float) for c in payload["cpds"]}
    return Net(tables=tables, **structure_of(payload))


def net_from_csv(payload: dict, csv_path: Path) -> tuple[Net, int]:
    """Maximum-likelihood tables counted from a CSV the program wrote, and its row count."""
    st = structure_of(payload)
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = np.array([line.split(",") for line in lines[1:]], dtype=str).reshape(-1, len(header))
    col = {}
    for k, n in enumerate(header):
        codes = np.full(len(cells), -1)
        for i, label in enumerate(st["domains"][n]):
            codes[cells[:, k] == label] = i
        if np.any(codes < 0):
            raise CheckFailed(f"{csv_path}: column {n!r} holds a label outside its domain")
        col[n] = codes
    tables = {}
    for n in st["names"]:
        family = (*st["parents"][n], n)
        cards = [len(st["domains"][v]) for v in family]
        flat = np.ravel_multi_index(tuple(col[v] for v in family), cards)
        counts = np.bincount(flat, minlength=math.prod(cards)).reshape(-1, cards[-1])
        tables[n] = counts / counts.sum(axis=1, keepdims=True)
    return Net(tables=tables, **st), len(cells)


def joint(net: Net) -> np.ndarray:
    """Joint over all nodes, axes following ``net.names``."""
    operands: list = []
    for node in net.names:
        operands += net.factor(node)
    return np.einsum(*operands, list(range(len(net.names))))


def interventional_metric(net: Net) -> np.ndarray:
    """P(metric | do(phenomenon = x)) as rows over x: the truncated product
    without the phenomenon's own factor, contracted onto (phenomenon, metric)."""
    operands: list = []
    for node in net.names:
        if node != net.phenomenon:
            operands += net.factor(node)
    out = [net.axis(net.phenomenon), net.axis(net.metric)]
    return np.einsum(*operands, out, optimize="greedy")


def marginal(net: Net, j: np.ndarray, nodes) -> np.ndarray:
    """Marginal of ``j`` over ``nodes``, axes in the given order."""
    return np.einsum(j, list(range(len(net.names))), [net.axis(n) for n in nodes])


def kl(p: np.ndarray, q: np.ndarray) -> float:
    p, q = p.ravel(), q.ravel()
    mask = p > 0.0
    return max(float(np.sum(p[mask] * np.log(p[mask] / q[mask]))), 0.0)


def influence(net: Net, j: np.ndarray, node: str) -> float:
    """KL(P || P with every out-edge of ``node`` fed an independent copy of it).

    Only the children's factors change, so the divergence is the sum over
    children c of E_{P(pa_c)} KL(P(c | pa_c) || sum_n' P(n') P(c | pa_c, n')).
    """
    p_node = marginal(net, j, [node])
    total = 0.0
    for child in net.names:
        pa = net.parents[child]
        if node not in pa:
            continue
        table, _ = net.factor(child)
        k = pa.index(node)
        cut = np.expand_dims(np.tensordot(p_node, table, axes=(0, k)), k)
        p_pa = marginal(net, j, pa)
        mask = table > 0.0
        terms = np.where(mask, table * np.log(np.where(mask, table, 1.0) / cut), 0.0)
        total += float(np.sum(p_pa * terms.sum(axis=-1)))
    return total


def effect_values(net: Net, j: np.ndarray) -> dict[str, float]:
    """ACE, RCE and sigma of one model; ``j`` is its joint."""
    codes = np.asarray(net.codes[net.metric])
    e_do = interventional_metric(net) @ codes
    cp = net.domains[net.phenomenon].index(net.cp_label)
    e_cp, e_not = e_do[cp], e_do[1 - cp]  # the program requires a binary phenomenon
    e_obs = float(marginal(net, j, [net.metric]) @ codes)
    return {"ACE": e_cp - e_not, "RCE": e_cp / e_not, "sigma": 1.0 - e_not / e_obs}


def indicator_values(ref: Net, cand: Net, node_set) -> dict[tuple[str, str], float]:
    """Every value of an ``indicators --set`` report, keyed by (name, role)."""
    j_ref, j_cand = joint(ref), joint(cand)
    out = {}
    for net, j, role in ((ref, j_ref, "reference"), (cand, j_cand, "candidate")):
        for name, value in effect_values(net, j).items():
            out[(name, role)] = float(value)
    x = ref.phenomenon
    out[("rho1", "pair")] = kl(marginal(cand, j_cand, [x]), marginal(ref, j_ref, [x]))
    nodes = sorted(node_set)
    out[("rho2", "pair")] = kl(marginal(cand, j_cand, nodes), marginal(ref, j_ref, nodes))
    components = [
        influence(ref, j_ref, n) - influence(cand, j_cand, n) for n in nodes if n != x
    ]
    out[("rho3", "pair")] = math.sqrt(sum(c * c for c in components))
    return out


class CheckFailed(Exception):
    """A request's output disagrees with its reference."""


def check_indicator_report(payload: dict, expected: dict, tol: float) -> None:
    """Raise :class:`CheckFailed` unless every expected value is reported within ``tol``."""
    got = {
        (r["name"], r["metadata"].get("role", "pair")): float(r["value"])
        for r in payload["reports"]
    }
    missing = sorted(set(expected) - set(got))
    if missing:
        raise CheckFailed(f"reports missing: {missing}")
    for key, want in expected.items():
        if not abs(got[key] - want) <= tol:
            raise CheckFailed(f"{key}: got {got[key]!r}, reference {want!r}")


# -- back-door admissibility --------------------------------------------------


@dataclass(frozen=True)
class Dag:
    parents: dict[str, tuple[str, ...]]
    latent: frozenset[str]

    @classmethod
    def from_payload(cls, payload: dict) -> "Dag":
        if payload["bidirected"]:
            raise ValueError("the oracle handles Markovian structures only")
        parents: dict[str, list[str]] = {v["name"]: [] for v in payload["variables"]}
        for a, b in payload["edges"]:
            parents[b].append(a)
        latent = frozenset(v["name"] for v in payload["variables"] if v["latent"])
        return cls({n: tuple(p) for n, p in parents.items()}, latent)

    def descendants(self, node: str) -> set[str]:
        children: dict[str, list[str]] = {n: [] for n in self.parents}
        for n, ps in self.parents.items():
            for p in ps:
                children[p].append(n)
        seen, stack = set(), [node]
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return seen

    def without_out_edges(self, node: str) -> "Dag":
        pruned = {n: tuple(p for p in ps if p != node) for n, ps in self.parents.items()}
        return Dag(pruned, self.latent)

    def d_separated(self, xs: set, ys: set, zs: set) -> bool:
        """Lauritzen's criterion: separation in the moralized ancestral graph."""
        ancestral, stack = set(), list(xs | ys | zs)
        while stack:
            n = stack.pop()
            if n not in ancestral:
                ancestral.add(n)
                stack.extend(self.parents[n])
        adjacent: dict[str, set] = {n: set() for n in ancestral}
        for n in ancestral:
            ps = self.parents[n]
            for p in ps:
                adjacent[n].add(p)
                adjacent[p].add(n)
            for a, b in itertools.combinations(ps, 2):
                adjacent[a].add(b)
                adjacent[b].add(a)
        seen, stack = set(xs), list(xs)
        while stack:
            for m in adjacent[stack.pop()]:
                if m in ys:
                    return False
                if m not in zs and m not in seen:
                    seen.add(m)
                    stack.append(m)
        return True


class BackdoorOracle:
    """Back-door admissibility of every subset of a pool, scanned once at set-up."""

    def __init__(self, dag: Dag, x: str, y: str, pool):
        self.dag, self.x, self.y = dag, x, y
        self.pruned = dag.without_out_edges(x)
        self.banned = dag.descendants(x) | {x, y} | dag.latent
        self.table = {
            frozenset(c): self.admissible(c)
            for size in range(len(pool) + 1)
            for c in itertools.combinations(sorted(pool), size)
        }

    def admissible(self, subset) -> bool:
        s = set(subset)
        return not (s & self.banned) and self.pruned.d_separated({self.x}, {self.y}, s)

    def expected_sets(self, candidates) -> list[list[str]]:
        """The documented scan order, then the parent set of x if it was missed."""
        pool = sorted(set(candidates) - self.banned)
        found = [
            frozenset(c)
            for size in range(len(pool) + 1)
            for c in itertools.combinations(pool, size)
            if self.table[frozenset(c)]
        ]
        ps = frozenset(self.dag.parents[self.x])
        if not ps & self.dag.latent and self.y not in ps and self.admissible(ps) and ps not in found:
            found.append(ps)
        return [sorted(s) for s in found]

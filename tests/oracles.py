"""Independent brute-force reference implementations used only by tests.

Everything here enumerates assignments with plain dict/loop code so the
library's array-based computations are checked against a genuinely separate
path: row indices accumulate by hand, joints are dict-valued, blocking is
decided on explicitly enumerated simple paths. The one exception,
:func:`exact_replay`, replays the library's own elimination plan in exact
arithmetic, so that a plan can be checked apart from its rounding.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from causalcrit import model
from causalcrit.graph import backdoor_admissible


def row_index(m, cpd, assignment) -> int:
    idx = 0
    for parent in cpd.parents:
        spec = m.specs[parent]
        idx = idx * spec.cardinality + spec.domain.index(assignment[parent])
    return idx


def brute_joint(m, do=None):
    """Full joint as {assignment tuple over sorted nodes: probability}.

    ``do`` maps nodes to labels: their factors are dropped and only the
    assignments that agree with it are kept, so the result is the truncated
    joint under that intervention.
    """
    do = do or {}
    names = sorted(m.instantiated)
    out = {}
    for values in itertools.product(*(m.specs[n].domain for n in names)):
        a = dict(zip(names, values))
        if any(a[n] != label for n, label in do.items()):
            continue
        p = 1.0
        for n in names:
            if n in do:
                continue
            cpd = m.cpds[n]
            p *= float(cpd.table[row_index(m, cpd, a)][m.specs[n].domain.index(a[n])])
        out[values] = p
    return names, out


def brute_marginal(names, joint, targets):
    """Marginal over `targets` (dict keyed by label tuples in sorted order)."""
    t = sorted(targets)
    pos = [names.index(n) for n in t]
    out = {}
    for values, p in joint.items():
        key = tuple(values[i] for i in pos)
        out[key] = out.get(key, 0.0) + p
    return out


def brute_conditional(m, target, given=None):
    """P(target | given) as {label: probability}: a slice of the brute-force
    marginal over the target and the given nodes, divided by its total."""
    given = given or {}
    names, joint = brute_joint(m)
    scope = sorted({target, *given})
    sub = {
        labels: p
        for labels, p in brute_marginal(names, joint, scope).items()
        if all(labels[scope.index(n)] == v for n, v in given.items())
    }
    total = sum(sub.values())
    out = dict.fromkeys(m.specs[target].domain, 0.0)
    for labels, p in sub.items():
        out[labels[scope.index(target)]] += p / total
    return out


def brute_expectation(m, names, joint, node) -> float:
    spec = m.specs[node]
    pos = names.index(node)
    return sum(p * spec.code_of(values[pos]) for values, p in joint.items())


def brute_truncated(m, do, target):
    """P(target | do) by clamping and multiplying the surviving factors."""
    names = sorted(m.instantiated)
    dist = {c: 0.0 for c in m.specs[target].domain}
    for values in itertools.product(*(m.specs[n].domain for n in names)):
        a = dict(zip(names, values))
        if any(a[n] != label for n, label in do.items()):
            continue
        p = 1.0
        for n in names:
            if n in do:
                continue
            cpd = m.cpds[n]
            p *= float(cpd.table[row_index(m, cpd, a)][m.specs[n].domain.index(a[n])])
        dist[a[target]] += p
    return dist


def conditionally_independent(names, joint, x, y, z, tol=1e-9) -> bool:
    """P(x, y | z) factorizes, checked as P(xyz) P(z) == P(xz) P(yz)."""
    p_xyz = brute_marginal(names, joint, set(x) | set(y) | set(z))
    p_xz = brute_marginal(names, joint, set(x) | set(z))
    p_yz = brute_marginal(names, joint, set(y) | set(z))
    p_z = brute_marginal(names, joint, set(z)) if z else {(): 1.0}
    order_xyz = sorted(set(x) | set(y) | set(z))
    for values, p in p_xyz.items():
        a = dict(zip(order_xyz, values))
        key_xz = tuple(a[n] for n in sorted(set(x) | set(z)))
        key_yz = tuple(a[n] for n in sorted(set(y) | set(z)))
        key_z = tuple(a[n] for n in sorted(z))
        lhs = p * p_z[key_z]
        rhs = p_xz[key_xz] * p_yz[key_yz]
        if abs(lhs - rhs) > tol:
            return False
    return True


# -- orders and reachability -------------------------------------------------

def kahn_order(nodes, edges):
    """Topological order taking the smallest ready name first (Kahn's
    algorithm on a min-heap), or None when the edges hold a cycle."""
    indegree = {n: 0 for n in nodes}
    for _, b in edges:
        indegree[b] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for a, b in edges:
            if a == node:
                indegree[b] -= 1
                if indegree[b] == 0:
                    heapq.heappush(ready, b)
    return order if len(order) == len(indegree) else None


def brute_reachable(edges, node):
    """Nodes reached from ``node`` along ``edges`` (pairs), excluding it
    unless a cycle leads back."""
    out = set()
    frontier = [node]
    while frontier:
        cur = frontier.pop()
        for a, b in edges:
            if a == cur and b not in out:
                out.add(b)
                frontier.append(b)
    return out


def brute_closure(m, over, clamped=()):
    """The nodes a query over ``over`` needs: every node of ``over`` and each
    of their ancestors, walking edges backwards but never out of a
    ``clamped`` node."""
    backwards = [(b, a) for a, b in m.structure.directed if b not in clamped]
    needed = set(over)
    for node in over:
        needed |= brute_reachable(backwards, node)
    return needed


def exact_joint(m, scope, do=None, over=None):
    """The joint of ``m`` over ``scope`` in exact rational arithmetic, as
    {label-index tuple over sorted(scope): Fraction}; a cell left out is 0.

    Every assignment of the ancestral closure (see :func:`brute_closure`)
    of ``over``, a superset of the scope that defaults to the scope, is
    enumerated, and each CPD entry counts as the exact value of its float.
    A CPD row's floats need not sum to exactly 1, so summing out a node of
    that closure outside the scope's own can move the exact value: with
    ``over`` the union of a batch's scopes, the joint is the one that the
    batch's elimination computes. ``do`` maps intervened nodes to one label
    index each: such a node is a point mass on its label, so only the
    assignments that agree with it count, and its CPD is not read.
    """
    do = do or {}
    names = sorted(brute_closure(m, over or scope, do))
    exact = {n: [list(map(Fraction, row)) for row in m.cpds[n].table.tolist()] for n in names if n not in do}
    out = {}
    for labels in itertools.product(*(range(m.specs[n].cardinality) for n in names)):
        a = dict(zip(names, labels))
        if any(a.get(n, i) != i for n, i in do.items()):
            continue
        p = Fraction(1)
        for n, table in exact.items():
            row = 0
            for parent in m.cpds[n].parents:
                row = row * m.specs[parent].cardinality + a[parent]
            p *= table[row][a[n]]
        key = tuple(a[n] for n in sorted(scope))
        out[key] = out.get(key, 0) + p
    return out


def exact_replay(m, scopes, do=None):
    """The joints of ``model.joint_tables(m, scopes, do)``, its plan replayed
    step for step on ``Fraction`` object arrays: one list entry per scope.

    Unlike the oracles above, this one runs the library's own plan, so it
    separates a wrong plan from rounding: each CPD cell counts as the exact
    value of its float, a do() selector and a ones factor as exact 0s and
    1s, and every product and sum is exact. The query is planned as one
    batch, so it must stay within the state-space limit. ``np.einsum``
    takes object arrays from numpy 1.25 on.
    """
    do = do or {}
    scopes = tuple(tuple(sorted(set(s))) for s in scopes)
    plan = model._plan(m, scopes, {n: len(rows) for n, rows in do.items()})
    arrays = [None] * len(plan.axes)
    for k, _, shape in plan.ones:
        arrays[k] = np.full(shape, Fraction(1), dtype=object)
    for k, n, shape in plan.tables:
        if n in do:
            rows = [[Fraction(int(i == label)) for i in range(m.specs[n].cardinality)] for label in do[n]]
        else:
            rows = [list(map(Fraction, row)) for row in m.cpds[n].table.tolist()]
        arrays[k] = np.array(rows, dtype=object).reshape(shape)
    for k, subscripts, ins in plan.steps:
        arrays[k] = np.einsum(subscripts, *[arrays[j] for j in ins])
    return [np.asarray(arrays[k], dtype=object).reshape(out) for k, out in zip(plan.reads, plan.outs)]


def brute_missing_cpds(m, over, clamped=()):
    """Sorted nodes without a CPD that a query over ``over`` needs (see
    :func:`brute_closure`); the clamped nodes themselves need no CPD."""
    return sorted(n for n in brute_closure(m, over, clamped) if n not in m.cpds and n not in clamped)


def brute_sample(m, n, seed):
    """Forward sampling row by row with inverse CDFs, as {observed node: codes}.

    Every node of the observed nodes' ancestral closure, in topological
    order, takes one ``default_rng(seed).random(n)`` draw; row r gets the
    first label whose cumulative probability is at least u_r, or the last
    label if there is none.
    """
    observed = [v for v in m.structure.nodes if v not in m.structure.latent]
    backwards = [(b, a) for a, b in m.structure.directed]
    needed = set(observed).union(*(brute_reachable(backwards, v) for v in observed))
    rng = np.random.default_rng(seed)
    drawn = {}
    for node in m.structure.topological_order():
        if node not in needed:
            continue
        cpd, spec = m.cpds[node], m.specs[node]
        codes = []
        for r, u in enumerate(rng.random(n).tolist()):
            parents = {p: m.specs[p].domain[drawn[p][r]] for p in cpd.parents}
            label, cum = spec.cardinality - 1, 0.0
            for k, prob in enumerate(cpd.table[row_index(m, cpd, parents)].tolist()):
                cum += prob
                if cum >= u:
                    label = k
                    break
            codes.append(label)
        drawn[node] = codes
    return {v: drawn[v] for v in observed}


def brute_tally(dataset):
    """The dataset that ``load_dataset`` reads back from ``save_dataset(dataset)``:
    each distinct code row with a nonzero count, in order of the first row
    that has a nonzero count, with the sum of its rows' counts."""
    from causalcrit.model import Dataset

    tally = {}
    rows = zip(*(codes.tolist() for codes in dataset.codes))
    for row, count in zip(rows, dataset.counts.tolist()):
        if count:
            tally[row] = tally.get(row, 0) + count
    return Dataset(
        columns=dataset.columns,
        codes=tuple([row[k] for row in tally] for k in range(len(dataset.columns))),
        domains=dataset.domains,
        counts=list(tally.values()),
    )


# -- path-enumeration d-separation -------------------------------------------

def _adjacency(structure):
    """Skeleton adjacency with per-edge arrowhead marks.

    Each item maps node -> list of (neighbor, into_node, into_neighbor):
    a directed a -> b contributes (b, False, True) at a; a bidirected arc has
    arrowheads at both ends.
    """
    adj = {n: [] for n in structure.nodes}
    for a, b in structure.directed:
        adj[a].append((b, False, True))
        adj[b].append((a, True, False))
    for pair in structure.bidirected:
        a, b = sorted(pair)
        adj[a].append((b, True, True))
        adj[b].append((a, True, True))
    return adj


def _all_simple_paths(structure, src, dst):
    """Paths as lists of (node, arrow_into_node_from_prev, arrow_into_next)."""
    adj = _adjacency(structure)
    paths = []

    def walk(node, seen, acc):
        for nbr, into_node, into_nbr in adj[node]:
            if nbr in seen:
                continue
            step = (node, nbr, into_node, into_nbr)
            if nbr == dst:
                paths.append(acc + [step])
            else:
                walk(nbr, seen | {nbr}, acc + [step])

    walk(src, {src}, [])
    return paths


def path_blocked(structure, path, z) -> bool:
    """Chain/fork pass outside z, collider passes only with z below it."""
    for k in range(len(path) - 1):
        _, mid, _, arrow_in = path[k]
        _, _, arrow_out_is_into_mid, _ = path[k + 1]
        is_collider = arrow_in and arrow_out_is_into_mid
        if is_collider:
            reachable = {mid} | brute_reachable(structure.directed, mid)
            if not (reachable & set(z)):
                return True
        else:
            if mid in z:
                return True
    return False


def brute_d_separated(structure, x, y, z) -> bool:
    for src in sorted(x):
        for dst in sorted(y):
            for path in _all_simple_paths(structure, src, dst):
                if not path_blocked(structure, path, set(z)):
                    return False
    return True


def brute_backdoor_admissible(structure, adjustment, x, y) -> bool:
    s = set(adjustment)
    if s & brute_reachable(structure.directed, x):
        return False
    if s & set(structure.latent):
        return False
    for path in _all_simple_paths(structure, x, y):
        first_into_x = path[0][2]
        if not first_into_x:
            continue
        if not path_blocked(structure, path, s):
            return False
    return True


def plain_adjustment_scan(structure, x, y, max_count, candidates=None):
    """``enumerate_adjustment_sets`` as a plain scan: every subset of the
    pool in (size, names) order, each put to ``backdoor_admissible``, cut at
    ``max_count``, then the same pa(x) rule. Admissibility is the library's
    check, itself tested against :func:`brute_backdoor_admissible`."""
    banned = brute_reachable(structure.directed, x) | {x, y} | set(structure.latent)
    pool = sorted(set(structure.nodes if candidates is None else candidates) - banned)
    subsets = (c for size in range(len(pool) + 1) for c in itertools.combinations(pool, size))
    results = []
    for adj in subsets:
        if len(results) == max_count:
            break
        if backdoor_admissible(structure, adj, x, y):
            results.append(frozenset(adj))
    parents = frozenset(a for a, b in structure.directed if b == x)
    confounded = any(x in pair for pair in structure.bidirected)
    if not (parents & (set(structure.latent) | {y}) or confounded or parents in results):
        results[max_count - 1 :] = [parents]
    return results


def brute_open_paths(structure, x, y, z, backdoor=False) -> set:
    """Every simple path from x to y that z leaves open, drawn with its edge
    marks as ``X <- W <-> phi``; with ``backdoor``, only those that enter x
    through an arrowhead."""
    out = set()
    for path in _all_simple_paths(structure, x, y):
        if (path[0][2] or not backdoor) and not path_blocked(structure, path, set(z)):
            text = [x]
            for _, nbr, into_node, into_nbr in path:
                text += ["<->" if into_node and into_nbr else "<-" if into_node else "->", nbr]
            out.add(" ".join(text))
    return out


# -- causal influence ---------------------------------------------------------

def brute_cut_joint(m, edges):
    """Joint after feeding independent marginal copies along the cut edges."""
    names, joint = brute_joint(m)
    marginals = {}
    for a, _ in edges:
        if a not in marginals:
            dist = brute_marginal(names, joint, [a])
            marginals[a] = {k[0]: v for k, v in dist.items()}
    cut_by_child = {}
    for a, b in edges:
        cut_by_child.setdefault(b, set()).add(a)

    out = {}
    for values in joint:
        a = dict(zip(names, values))
        p = 1.0
        for n in names:
            cpd = m.cpds[n]
            cut = cut_by_child.get(n, set())
            if not cut:
                p *= float(
                    cpd.table[row_index(m, cpd, a)][m.specs[n].domain.index(a[n])]
                )
                continue
            total = 0.0
            for combo in itertools.product(
                *(m.specs[c].domain for c in sorted(cut))
            ):
                sub = dict(a)
                weight = 1.0
                for c, label in zip(sorted(cut), combo):
                    sub[c] = label
                    weight *= marginals[c][label]
                total += weight * float(
                    cpd.table[row_index(m, cpd, sub)][m.specs[n].domain.index(a[n])]
                )
            p *= total
        out[values] = p
    return names, joint, out


def brute_causal_influence(m, edges) -> float:
    _, joint, cut = brute_cut_joint(m, edges)
    total = 0.0
    for values, p in joint.items():
        if p > 0.0:
            total += p * math.log(p / cut[values])
    return max(total, 0.0)


def brute_kl(p, q) -> float:
    total = 0.0
    for key, prob in p.items():
        if prob > 0.0:
            total += prob * math.log(prob / q[key])
    return max(total, 0.0)


def nearest_cell(field, x, y):
    """The (iy, ix) lattice cell nearest to one point, by Python's round
    (half to even), or None when the point lies outside the lattice or its
    index is past the float range."""
    ny, nx = field.long_avail.shape
    fx, fy = (float(x) - field.x0) / field.dx, (float(y) - field.y0) / field.dy
    if not (math.isfinite(fx) and math.isfinite(fy)):
        return None
    ix, iy = int(round(fx)), int(round(fy))
    return (iy, ix) if 0 <= ix < nx and 0 <= iy < ny else None

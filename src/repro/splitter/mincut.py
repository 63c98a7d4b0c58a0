"""Exact host assignment by max-flow/min-cut (Section 6, exact path).

The Section 6 placement problem is, for two hosts, exactly Stone's
classic program-assignment problem: every statement and field is a graph
node, every control-flow edge / field access / call is a weighted edge
that costs its link weight when the endpoints are split across hosts,
and per-field preference terms are node (unary) costs.  Minimising total
message cost is then a minimum s-t cut, solvable exactly in polynomial
time — no sweeps, no seeds, no dynamic program.

Two layers live here:

* :class:`PlacementModel` — the placement cost model, built in one pass
  over the same candidate sets the heuristic optimizer uses.  Its
  :meth:`~PlacementModel.cost` reproduces ``Optimizer._total_cost``
  exactly (the differential tests assert this), so the exact path and
  the heuristic optimise the same objective.

* ``solve_two_host`` — the exact cut for instances whose free nodes all
  choose between the same two hosts.  ``reduce_hosts`` first prunes
  *dominated* hosts: a host no node is forced to, that every node could
  swap for an everywhere-no-worse alternative, can be removed without
  changing the optimal cost (mapping every node off the pruned host onto
  the alternative never increases any edge or unary term).  The common
  A/B/T progen configuration reduces to an exact two-host instance this
  way — B holds no fields, forces no statements, and its links are no
  cheaper than A's — which is what lets the benchmark sweep skip the
  heuristic entirely.

``optimizer.assign_hosts`` takes this exact path whenever
:func:`try_exact` applies and the chain-DP heuristic otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.typecheck import CheckedProgram
from ..trust import TrustConfiguration
from . import ir
from .selection import CandidateSets, SplitError

#: Capacities at or below this are treated as saturated (float noise).
_EPSILON = 1e-9


class PlacementModel:
    """The placement objective as nodes, edges, and unary costs.

    Node indices cover every statement and field.  ``forced`` maps the
    nodes with exactly one candidate host (or a field pin); the rest are
    ``free``.  Edge weights are *link multipliers*: the realised cost of
    edge ``(a, b, w)`` is ``w * link(host_a, host_b)``.
    """

    def __init__(self, config: TrustConfiguration) -> None:
        self.config = config
        self.link: Dict[Tuple[str, str], float] = {}
        #: node index -> ("stmt", uid) | ("field", (cls, name))
        self.node_keys: List[Tuple[str, object]] = []
        #: node index -> candidate host names (singletons are forced)
        self.candidates: List[Tuple[str, ...]] = []
        #: node index -> host, for single-candidate / pinned nodes
        self.forced: Dict[int, str] = {}
        #: node index -> {host: unary cost} (field preference terms)
        self.unary: List[Dict[str, float]] = []
        #: aggregated undirected edges (a, b, weight), a < b
        self.edges: List[Tuple[int, int, float]] = []
        #: cost contributed by edges between two forced nodes
        self.constant: float = 0.0

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        checked: CheckedProgram,
        program: ir.IRProgram,
        config: TrustConfiguration,
        candidates: CandidateSets,
    ) -> "PlacementModel":
        from .optimizer import (
            _FIELD_ACCESS_MESSAGES,
            _PREFERENCE_BASELINE,
            _loop_weight,
            build_cfg_edges,
        )

        model = cls(config)
        names = config.host_names
        model.link = {
            (a, b): config.link_cost(a, b) for a in names for b in names
        }
        index_of: Dict[Tuple[str, object], int] = {}
        node_keys = model.node_keys
        node_candidates = model.candidates
        node_unary = model.unary
        forced = model.forced
        loop_weights = [_loop_weight(depth) for depth in range(7)]

        # Fields first: unary preference terms, pins force placement.
        for fkey, hosts in candidates.fields.items():
            pin = config.field_pin(*fkey)
            host_names = tuple(h.name for h in hosts)
            if pin is not None:
                if pin not in host_names:
                    raise SplitError(
                        f"field {fkey[0]}.{fkey[1]} is pinned to {pin}, but "
                        f"that host does not satisfy its Section 4 "
                        f"constraints"
                    )
                host_names = (pin,)
            info = checked.fields[fkey]
            owners = [p.name for p in info.label.conf.owners()]
            if not owners:
                owners = [p.name for p in info.label.integ.trust]
            unary = {}
            for host in host_names:
                weight = 1.0
                for owner in owners:
                    weight *= config.preference(owner, host)
                unary[host] = _PREFERENCE_BASELINE * weight
            index = len(node_keys)
            index_of[("field", fkey)] = index
            node_keys.append(("field", fkey))
            node_candidates.append(host_names)
            node_unary.append(unary)
            if len(host_names) == 1:
                forced[index] = host_names[0]

        # Statements, with their field-access and call edges.
        raw_edges: Dict[Tuple[int, int], float] = {}

        def add_edge(a: int, b: int, weight: float) -> None:
            if a == b:
                return  # link(h, h) == 0 — a self edge never costs
            key = (a, b) if a < b else (b, a)
            raw_edges[key] = raw_edges.get(key, 0.0) + weight

        entry_uids: Dict[Tuple[str, str], int] = {}
        calls: List[Tuple[int, Tuple[str, str], float]] = []
        stmt_candidates = candidates.statements
        empty_unary: Dict[str, float] = {}
        # Candidate tuples are shared (the eligibility cache hands out
        # one per distinct label pair), so their name tuples memoize by
        # identity.
        names_memo: Dict[int, Tuple[str, ...]] = {}
        for mkey, method in program.methods.items():
            stmts = list(ir.walk_stmts(method.body))
            if stmts:
                entry_uids[mkey] = stmts[0].info.uid
            for stmt in stmts:
                info = stmt.info
                uid = info.uid
                descriptors = stmt_candidates[uid]
                hosts = names_memo.get(id(descriptors))
                if hosts is None:
                    hosts = names_memo[id(descriptors)] = tuple(
                        h.name for h in descriptors
                    )
                if not hosts:
                    raise SplitError(
                        f"statement at {info.pos} has no candidate hosts"
                    )
                index = len(node_keys)
                index_of[("stmt", uid)] = index
                node_keys.append(("stmt", uid))
                node_candidates.append(hosts)
                node_unary.append(empty_unary)
                if len(hosts) == 1:
                    forced[index] = hosts[0]
                weight = loop_weights[min(info.loop_depth, 6)]
                used_f = info.used_fields
                defined_f = info.defined_fields
                if defined_f:
                    fkeys = used_f | defined_f
                else:
                    fkeys = used_f
                for fkey in fkeys:
                    add_edge(
                        index,
                        index_of[("field", fkey)],
                        _FIELD_ACCESS_MESSAGES * weight,
                    )
                if isinstance(stmt, ir.CallStmt):
                    calls.append((index, (stmt.cls, stmt.method), weight))
            for a, b, depth in build_cfg_edges(method.body):
                add_edge(
                    index_of[("stmt", a)],
                    index_of[("stmt", b)],
                    loop_weights[min(depth, 6)],
                )
        # A call costs a transfer to the callee's entry and one back.
        for index, callee_key, weight in calls:
            entry_uid = entry_uids.get(callee_key)
            if entry_uid is not None:
                add_edge(index, index_of[("stmt", entry_uid)], 2.0 * weight)

        for (a, b), weight in raw_edges.items():
            if a in model.forced and b in model.forced:
                model.constant += weight * model.link[
                    model.forced[a], model.forced[b]
                ]
            else:
                model.edges.append((a, b, weight))
        return model

    # -- evaluation ---------------------------------------------------------

    def cost(self, hosts: Sequence[str]) -> float:
        """Total cost of a complete placement (``hosts[i]`` per node).

        Mirrors ``Optimizer._total_cost`` term for term: pairwise link
        costs plus field preference unaries plus the forced-forced
        constant.
        """
        link = self.link
        total = self.constant
        for a, b, weight in self.edges:
            total += weight * link[hosts[a], hosts[b]]
        for index, unary in enumerate(self.unary):
            if unary:
                total += unary[hosts[index]]
        return total

    def assignment_hosts(self, assignment) -> List[str]:
        """Flatten an :class:`~repro.splitter.optimizer.Assignment` into
        the model's node order (for :meth:`cost`)."""
        hosts: List[str] = []
        for kind, key in self.node_keys:
            if kind == "stmt":
                hosts.append(assignment.statements[key])
            else:
                hosts.append(assignment.fields[key])
        return hosts

    def to_assignment(self, hosts: Sequence[str]):
        from .optimizer import Assignment

        assignment = Assignment()
        for index, (kind, key) in enumerate(self.node_keys):
            if kind == "stmt":
                assignment.statements[key] = hosts[index]
            else:
                assignment.fields[key] = hosts[index]
        return assignment


# -- host domination pruning -----------------------------------------------


def reduce_hosts(model: PlacementModel) -> List[str]:
    """Prune dominated hosts from the free nodes' candidate sets.

    A host ``h`` may be removed when (1) no node is forced to ``h``,
    (2) some host ``h'`` is a candidate wherever ``h`` is, with unary
    cost never worse, and (3) ``h'``'s links are never more expensive
    toward any other relevant host.  Then any placement using ``h`` maps
    to one on ``h'`` at no greater cost (``link(h', h') = link(h, h) =
    0`` covers edges between two moved nodes), so pruning preserves the
    optimal cost.  Returns the remaining candidate-host union, pruning
    until no host is dominated or only two remain.
    """
    forced_hosts = set(model.forced.values())
    free = [i for i in range(len(model.node_keys)) if i not in model.forced]
    cands: Dict[int, set] = {i: set(model.candidates[i]) for i in free}
    union = sorted({h for s in cands.values() for h in s})
    relevant = sorted(set(union) | forced_hosts)
    link = model.link
    changed = True
    while changed and len(union) > 2:
        changed = False
        for host in list(union):
            if host in forced_hosts:
                continue
            users = [i for i in free if host in cands[i]]
            for alt in union:
                if alt == host:
                    continue
                if not all(alt in cands[i] for i in users):
                    continue
                if not all(
                    model.unary[i].get(alt, 0.0)
                    <= model.unary[i].get(host, 0.0)
                    for i in users
                ):
                    continue
                if not all(
                    link[alt, other] <= link[host, other]
                    for other in relevant
                    if other != host and other != alt
                ):
                    continue
                for i in users:
                    cands[i].discard(host)
                union = sorted({h for s in cands.values() for h in s})
                changed = True
                break
            if changed:
                break
    for i in free:
        model.candidates[i] = tuple(
            h for h in model.candidates[i] if h in cands[i]
        )
        if len(model.candidates[i]) == 1:
            model.forced[i] = model.candidates[i][0]
    return union


# -- max-flow (Dinic) -------------------------------------------------------


class _Dinic:
    """Deterministic Dinic max-flow on float capacities."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: List[int] = []
        self.cap: List[float] = []
        self.adj: List[List[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap_uv: float, cap_vu: float) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap_uv)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(cap_vu)

    def max_flow(self, source: int, sink: int) -> float:
        flow = 0.0
        while True:
            level = [-1] * self.n
            level[source] = 0
            queue = [source]
            for u in queue:
                for edge in self.adj[u]:
                    v = self.to[edge]
                    if level[v] < 0 and self.cap[edge] > _EPSILON:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[sink] < 0:
                return flow
            iters = [0] * self.n

            def dfs(u: int, pushed: float) -> float:
                if u == sink:
                    return pushed
                while iters[u] < len(self.adj[u]):
                    edge = self.adj[u][iters[u]]
                    v = self.to[edge]
                    if self.cap[edge] > _EPSILON and level[v] == level[u] + 1:
                        found = dfs(v, min(pushed, self.cap[edge]))
                        if found > _EPSILON:
                            self.cap[edge] -= found
                            self.cap[edge ^ 1] += found
                            return found
                    iters[u] += 1
                return 0.0

            while True:
                pushed = dfs(source, float("inf"))
                if pushed <= _EPSILON:
                    break
                flow += pushed

    def source_side(self, source: int) -> List[bool]:
        """Nodes reachable from the source in the residual graph — the
        canonical (minimal-source-side) minimum cut, deterministic."""
        seen = [False] * self.n
        seen[source] = True
        queue = [source]
        for u in queue:
            for edge in self.adj[u]:
                v = self.to[edge]
                if not seen[v] and self.cap[edge] > _EPSILON:
                    seen[v] = True
                    queue.append(v)
        return seen


# -- solvers ---------------------------------------------------------------


def _cut_between(
    model: PlacementModel,
    host_x: str,
    host_y: str,
    fixed: Dict[int, str],
    movable: List[int],
) -> Dict[int, str]:
    """Exact min-cut placement of ``movable`` nodes onto ``host_x`` /
    ``host_y``, with every other node fixed at ``fixed[node]``."""
    link = model.link
    index_in_cut = {node: pos for pos, node in enumerate(movable)}
    n = len(movable)
    source, sink = n, n + 1
    dinic = _Dinic(n + 2)
    # Terminal capacities: cost of siding with Y (s->n) or X (n->t).
    to_source = [0.0] * n
    to_sink = [0.0] * n
    for pos, node in enumerate(movable):
        unary = model.unary[node]
        if unary:
            to_source[pos] += unary.get(host_y, 0.0)
            to_sink[pos] += unary.get(host_x, 0.0)
    for a, b, weight in model.edges:
        a_pos = index_in_cut.get(a)
        b_pos = index_in_cut.get(b)
        if a_pos is not None and b_pos is not None:
            cut_cost = weight * link[host_x, host_y]
            if cut_cost > 0.0:
                dinic.add_edge(a_pos, b_pos, cut_cost, cut_cost)
        elif a_pos is not None or b_pos is not None:
            pos = a_pos if a_pos is not None else b_pos
            other = fixed[b if a_pos is not None else a]
            to_source[pos] += weight * link[host_y, other]
            to_sink[pos] += weight * link[host_x, other]
    for pos in range(n):
        if to_source[pos] > 0.0 or to_sink[pos] > 0.0:
            dinic.add_edge(source, pos, to_source[pos], 0.0)
            dinic.add_edge(pos, sink, to_sink[pos], 0.0)
    dinic.max_flow(source, sink)
    side = dinic.source_side(source)
    return {
        node: host_x if side[pos] else host_y
        for pos, node in enumerate(movable)
    }


def solve_two_host(model: PlacementModel, union: List[str]) -> List[str]:
    """Exact solution for a (reduced) two-host instance."""
    hosts: List[str] = [model.forced.get(i, "") for i in range(len(model.node_keys))]
    movable = [i for i in range(len(model.node_keys)) if i not in model.forced]
    if movable:
        host_x, host_y = sorted(union)
        placed = _cut_between(model, host_x, host_y, model.forced, movable)
        for node, host in placed.items():
            hosts[node] = host
    return hosts


def try_exact(
    checked: CheckedProgram,
    program: ir.IRProgram,
    config: TrustConfiguration,
    candidates: CandidateSets,
):
    """The exact placement, when it applies.

    Returns an :class:`~repro.splitter.optimizer.Assignment` when the
    instance reduces to at most two eligible hosts (after domination
    pruning), or ``None`` — in which case the caller falls back to the
    heuristic."""
    model = PlacementModel.build(checked, program, config, candidates)
    union = reduce_hosts(model)
    if len(union) > 2:
        return None
    hosts = solve_two_host(model, union)
    return model.to_assignment(hosts)

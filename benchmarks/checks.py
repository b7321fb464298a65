"""Correctness checks for benchmark outputs.

Every expected value here is recomputed by this file's own code from the
input graph (BFS, closed-form diameters, the phase timeline, the label
code) or is a property the paper requires.  Nothing is compared with a
stored copy of earlier output.  Each check returns a list of error strings;
an empty list means the operation's output is correct.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

# The harness round-cap multiplier; the benchmark clears
# RSD_ROUND_CAP_MULTIPLIER so the program uses this default too.
CAP_MULTIPLIER = 64
MAX_ERRORS = 5


def bitlen(x: int) -> int:
    return x.bit_length()


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs(adj, source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def root_of(adj) -> int:
    """Lowest-id node of maximum degree: the paper's root choice."""
    delta = max(len(ns) for ns in adj)
    return min(v for v in range(len(adj)) if len(adj[v]) == delta)


def expected_diameter(kind: str, n: int, edges, shape=()) -> int:
    """Closed form for the structured shapes, a double BFS sweep on trees,
    and BFS from every node on general graphs."""
    if kind == "path":
        return n - 1
    if kind == "cycle":
        return n // 2
    if kind == "grid":
        rows, cols = shape
        return rows + cols - 2
    if kind == "star":
        return 1 if n == 2 else 2
    adj = adjacency(n, edges)
    if kind in ("tree", "family"):
        if len(edges) != n - 1:
            raise ValueError(f"{kind} instance has {len(edges)} edges for {n} nodes")
        far = bfs(adj, 0)
        u = far.index(max(far))
        return max(bfs(adj, u))
    return max(max(bfs(adj, v)) for v in range(n))


# --- the phase timeline ----------------------------------------------------


@dataclass(frozen=True)
class Timeline:
    """Simulated rounds split by procedure; the parts sum to `total`."""

    param: int
    flood: int
    blocks: int
    final: int

    @property
    def total(self) -> int:
        return self.param + self.flood + self.blocks + self.final


def timeline(n: int, delta: int, levels, weights, blocks_per_level) -> Timeline:
    """Closed-form round count of one run from the oracle's weights and
    completion blocks.

    t1 = m + h(2m+2) + h + h(2 bitlen h + 2); per phase i (members at level
    h-i, children at level h-i+1, x = largest child weight):
    t2' = t2 + 2h(2 bitlen x + 2), T = t2' + (last block) * tau with
    tau = m + x m + 1, then t2 = T + 2h(2 bitlen T + 2); the final flood of n
    ends at t2 + h(2 bitlen n + 2).
    """
    h = len(levels) - 1
    m = bitlen(delta)
    t1 = m + h * (2 * m + 2) + h + h * (2 * bitlen(h) + 2)
    t2 = t1
    flood = block_rounds = 0
    for i in range(1, h + 1):
        x = max(weights[u] for u in levels[h - i + 1])
        wave_x = 2 * h * (2 * bitlen(x) + 2)
        tau = m + x * m + 1
        spent = max(blocks_per_level[h - i].values()) * tau
        big_t = t2 + wave_x + spent
        wave_t = 2 * h * (2 * bitlen(big_t) + 2)
        t2 = big_t + wave_t
        flood += wave_x + wave_t
        block_rounds += spent
    final = h * (2 * bitlen(n) + 2)
    return Timeline(param=t1, flood=flood, blocks=block_rounds, final=final)


# --- labels ----------------------------------------------------------------


def decode_label(bits: str):
    """Decode the self-delimiting label code: 7 marker bits, then per tag a
    unary length, a one, the id bits and the data bit."""
    if len(bits) < 7 or set(bits) - {"0", "1"}:
        raise ValueError(f"not a label: {bits!r}")
    markers = tuple(int(c) for c in bits[:7])
    pos = 7
    tags = []
    for _ in range(3):
        width = 0
        while pos < len(bits) and bits[pos] == "0":
            width += 1
            pos += 1
        pos += 1
        body = bits[pos : pos + width + 1]
        if len(body) != width + 1:
            raise ValueError(f"truncated tag in {bits!r}")
        tags.append((int(body[:width], 2) if width else 0, int(body[width])))
        pos += width + 1
    if pos != len(bits):
        raise ValueError(f"trailing bits in {bits!r}")
    return markers, tags


def label_errors(scheme, delta: int) -> list[str]:
    bound = 16 + 6 * bitlen(bitlen(delta))
    errors = []
    for v, bits in scheme.encoded.items():
        if len(bits) > bound:
            errors.append(f"label of node {v} has {len(bits)} bits > {bound}")
            continue
        lbl = scheme.labels[v]
        want = (tuple(lbl.markers), [(t.id, t.bit) for t in (lbl.l1, lbl.l2, lbl.l3)])
        try:
            got = decode_label(bits)
        except ValueError as exc:
            errors.append(f"label of node {v}: {exc}")
            continue
        if got != want:
            errors.append(f"label of node {v} decodes to {got}, not {want}")
    return errors[:MAX_ERRORS]


# --- the oracle --------------------------------------------------------------


def oracle_errors(g, d, plan, weights) -> list[str]:
    """Root choice, BFS levels, the private-child partition and the weights."""
    adj = adjacency(g.n, g.edges)
    root = root_of(adj)
    dist = bfs(adj, root)
    h = max(dist)
    if d.root != root or d.delta != len(adj[root]) or d.h != h or list(d.level) != dist:
        return [f"decomposition (root {d.root}, delta {d.delta}, h {d.h}) differs from BFS "
                f"(root {root}, delta {len(adj[root])}, h {h})"]
    errors = []
    levels = [[] for _ in range(h + 1)]
    for v in range(g.n):
        levels[dist[v]].append(v)
    for l in range(h):
        claimed: list[int] = []
        for v in plan.us[l]:
            if dist[v] != l:
                errors.append(f"member {v} of US({l}) sits at level {dist[v]}")
            private = plan.nprime[v]
            if not private or any(u not in adj[v] or dist[u] != l + 1 for u in private):
                errors.append(f"private children of {v} are not its level-{l + 1} neighbours")
            claimed.extend(private)
        if sorted(claimed) != levels[l + 1]:
            errors.append(f"private children of US({l}) do not partition level {l + 1}")
    if weights.get(root) != g.n:
        errors.append(f"root weight {weights.get(root)} != n = {g.n}")
    below = g.n
    for l in range(h + 1):
        total = sum(weights[v] for v in levels[l])
        if total != below:
            errors.append(f"level {l} weights sum to {total}, {below} nodes at or below it")
        below -= len(levels[l])
    return errors[:MAX_ERRORS]


def oracle_timeline(g, d, weights, blocks_per_level) -> Timeline:
    adj = adjacency(g.n, g.edges)
    dist = bfs(adj, root_of(adj))
    levels = [[] for _ in range(max(dist) + 1)]
    for v in range(g.n):
        levels[dist[v]].append(v)
    return timeline(g.n, max(len(ns) for ns in adj), levels, weights, blocks_per_level)


def cap_for(n: int, delta: int, diameter: int) -> int:
    return CAP_MULTIPLIER * diameter * n * n * bitlen(delta)


# --- per-operation checks ------------------------------------------------------


def run_errors(inst, res, blocks_of) -> tuple[list[str], Timeline | None]:
    """One run_protocol result: outputs, oracle, labels, round cap and the
    exact round count predicted by the timeline.  `blocks_of()` gives the
    oracle's completion blocks; it is called only on a sound oracle."""
    g = inst.graph
    errors = []
    if not res.ok or res.report(g).get("outputs_ok") is not True:
        errors.append(f"run not ok: {res.failure}")
    wrong = [v for v in range(g.n) if res.outputs.get(v) != g.n]
    if wrong:
        errors.append(f"{len(wrong)} nodes do not output n = {g.n}, e.g. node {wrong[0]}")
    structural = oracle_errors(g, res.decomposition, res.plan, res.oracle_weights)
    errors += structural
    delta = max(len(ns) for ns in adjacency(g.n, g.edges))
    errors += label_errors(res.scheme, delta)
    cap = cap_for(g.n, delta, expected_diameter(inst.kind, g.n, g.edges, inst.shape))
    if res.round_cap != cap:
        errors.append(f"round cap {res.round_cap} != {cap} from the expected diameter")
    if res.rounds_used > cap:
        errors.append(f"rounds_used {res.rounds_used} exceeds 64*D*n^2*(log delta+1) = {cap}")
    if structural:
        return errors, None
    tl = oracle_timeline(g, res.decomposition, res.oracle_weights, blocks_of())
    if res.rounds_used != tl.total:
        errors.append(f"rounds_used {res.rounds_used} != timeline {tl.total}")
    return errors, tl


def labelling_errors(inst, out, blocks_of) -> tuple[list[str], Timeline | None]:
    """Labelling plus round cap without simulation."""
    g = inst.graph
    errors = oracle_errors(g, out.decomposition, out.plan, out.weights)
    delta = max(len(ns) for ns in adjacency(g.n, g.edges))
    errors += label_errors(out.scheme, delta)
    want = expected_diameter(inst.kind, g.n, g.edges, inst.shape)
    if out.diameter != want:
        errors.append(f"diameter {out.diameter} != {want}")
    if out.round_cap != cap_for(g.n, delta, want):
        errors.append(f"round cap {out.round_cap} != {cap_for(g.n, delta, want)}")
    if errors:
        return errors, None
    return errors, oracle_timeline(g, out.decomposition, out.weights, blocks_of())


def trace_errors(g, text: str, rounds_used: int) -> list[str]:
    """Every listener's observation must follow the 0/1/>=2 rule, recomputed
    from the graph; transmitters observe '-'; the last transmitting round is
    rounds_used."""
    adj = adjacency(g.n, g.edges)
    lines = text.splitlines()
    if len(lines) % g.n:
        return [f"{len(lines)} trace lines is not a whole number of rounds of {g.n} nodes"]
    errors = []
    last_tx = 0
    for start in range(0, len(lines), g.n):
        r = start // g.n + 1
        rows = [line.split() for line in lines[start : start + g.n]]
        if any(len(row) != 4 or row[0] != str(r) or row[1] != str(v) for v, row in enumerate(rows)):
            return errors + [f"round {r} does not list nodes 0..{g.n - 1} in order"]
        sent = {v: row[2][2:] for v, row in enumerate(rows) if row[2].startswith("T:")}
        if sent:
            last_tx = r
        for v, row in enumerate(rows):
            if v in sent:
                want = "-"
            elif row[2] != "L":
                want = None
            else:
                heard = [sent[w] for w in adj[v] if w in sent]
                want = "S" if not heard else f"H:{heard[0]}" if len(heard) == 1 else "C"
            if row[3] != want:
                errors.append(f"round {r} node {v}: observed {row[3]}, rule gives {want}")
                if len(errors) >= MAX_ERRORS:
                    return errors
    if last_tx != rounds_used:
        errors.append(f"last transmission in round {last_tx}, report says {rounds_used}")
    return errors


def cli_errors(inst, code, stdout, report_text, trace_text, fast) -> list[str]:
    """`rsd run --trace` on one graph file, against a fast-engine run."""
    g = inst.graph
    errors = []
    if code != 0:
        errors.append(f"rsd run exited {code}")
    if stdout != report_text:
        errors.append("report printed differs from report file")
    try:
        report = json.loads(report_text)
    except ValueError:
        return errors + ["report is not JSON"]
    if report != fast.report(g):
        errors.append(f"traced report {report} != fast-engine report {fast.report(g)}")
    adj = adjacency(g.n, g.edges)
    delta = max(len(ns) for ns in adj)
    if report.get("n") != g.n or report.get("outputs_ok") is not True:
        errors.append(f"report n {report.get('n')} outputs_ok {report.get('outputs_ok')}")
    if report.get("delta") != delta or report.get("h") != max(bfs(adj, root_of(adj))):
        errors.append("report delta/h differ from BFS")
    if not 0 < report.get("max_label_bits", 0) <= 16 + 6 * bitlen(bitlen(delta)):
        errors.append(f"max_label_bits {report.get('max_label_bits')} over the bound")
    cap = cap_for(g.n, delta, expected_diameter(inst.kind, g.n, g.edges, inst.shape))
    if report.get("bound_Dn2logDelta") != cap:
        errors.append(f"bound_Dn2logDelta {report.get('bound_Dn2logDelta')} != {cap}")
    errors += trace_errors(g, trace_text, report.get("rounds_used", -1))
    return errors


def pattern_count(beta: int) -> int:
    """z^2 * 3^(2z) for z = 2^(beta+1) labels, by repeated multiplication."""
    z = 1 << (beta + 1)
    count = z * z
    for _ in range(2 * z):
        count *= 3
    return count


def lemma_errors(report, delta, trials, rounds, bound, beta) -> list[str]:
    errors = []
    if (report.get("delta"), report.get("trials"), report.get("rounds")) != (delta, trials, rounds):
        errors.append(f"lemma report is for {report.get('delta')}/{report.get('trials')}/{report.get('rounds')}")
    if report.get("violations"):
        errors.append(f"{len(report['violations'])} lemma violations, e.g. {report['violations'][0]}")
    if bound != pattern_count(beta):
        errors.append(f"pattern bound {bound} != z^2*3^(2z) = {pattern_count(beta)}")
    return errors

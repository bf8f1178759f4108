"""Plain BFS references: every layer of the flip graph, distances, and
maximal chains through a node.

Test-only reference for ``zonotiling.flipgraph.enumerate_tilings``, which
runs its BFS only through the middle layer and builds the rest of the graph
as the half-turn image of the first half.  ``full_bfs_graph`` visits every
layer: it reads each layer's flips and levels off its keys with
``column_flips``, numbers each layer in sorted key order, and keeps a
key-to-id map for all nodes.  The production graph must have the same keys,
adjacency and levels; see tests/test_flipgraph.py::TestHalfTurnEnumeration.
``bfs_distances`` is the one-source BFS that the bit-parallel
``graph_diameter`` is checked against, and ``max_chain_through`` builds a
maximal chain through a node from two of them.
"""

from collections import deque

from zonotiling.core import Finding, PointConfig, key_store, num_triples
from zonotiling.flipgraph import Chain, check_node, column_flips


def full_bfs_graph(config: PointConfig) -> tuple[list[int], list[list[int]], list[bytes]]:
    """(keys, adj, levels) of the flip graph, every layer by BFS."""
    n = config.n
    keys = [0]
    index = {0: 0}
    adj: list[list[int]] = []
    levels: list[bytes] = []
    start = 0
    while start < len(keys):
        pending = []  # neighbour keys of each node in the layer
        discovered = set()
        layer = keys[start:]
        for ukey, (bits, node_levels) in zip(layer, column_flips(n, key_store(n, layer))):
            vkeys = [ukey ^ bit for bit in bits]
            discovered.update(vkey for vkey in vkeys if vkey > ukey)
            pending.append(vkeys)
            levels.append(node_levels)
        start = len(keys)
        for vkey in sorted(discovered):
            index[vkey] = len(keys)
            keys.append(vkey)
        adj.extend([index[vkey] for vkey in vkeys] for vkeys in pending)
    return keys, adj, levels


def bfs_distances(adj, source):
    """Edge distance from the source to every node, -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def max_chain_through(graph, node, regular_nodes=None):
    """A maximal chain from minimum to maximum passing through the node.

    With regular_nodes given, every chain node must belong to that set, and
    distances run on the subgraph it induces.  A flip moves the inversion
    count by one, so a node lies on a chain exactly when its distances from
    the minimum and from the maximum sum to C(n,3); from the node, the chain
    steps each way to the first neighbour, in ``adj`` order, one closer to
    that end.  Absence of a chain raises a Finding.
    """
    check_node(graph, node)
    adj = graph.adj
    if regular_nodes is not None:
        if node not in regular_nodes:
            raise ValueError(f"node {node} is outside the allowed node set")
        inside = regular_nodes.__contains__
        adj = [list(filter(inside, nbrs)) if inside(v) else [] for v, nbrs in enumerate(adj)]
    ends = (graph.min_id, graph.max_id)
    down, up = (bfs_distances(adj, end) for end in ends)
    if min(down[node], up[node]) < 0 or down[node] + up[node] != num_triples(graph.n):
        raise Finding(f"no monotone chain through node {node} within the allowed set")
    halves = []
    for dist, end in zip((down, up), ends):
        steps = []
        v = node
        while v != end:
            v, level = next(
                (w, level)
                for w, level in zip(graph.adj[v], graph.levels[v])
                if dist[w] == dist[v] - 1
            )
            steps.append((v, level))
        halves.append(steps)
    down_steps, up_steps = halves
    nodes = [v for v, _ in reversed(down_steps)] + [node] + [v for v, _ in up_steps]
    levels = [level for _, level in reversed(down_steps)] + [level for _, level in up_steps]
    return Chain(tuple(nodes), tuple(levels))

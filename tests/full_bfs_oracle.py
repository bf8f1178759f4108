"""Plain layer-by-layer BFS over every tiling, kept as a reference enumeration.

Test-only reference for ``zonotiling.flipgraph.enumerate_tilings``, which
runs its BFS only through the middle layer and builds the rest of the graph
as the half-turn image of the first half.  This BFS visits every layer: it
reads each layer's flips and levels off its keys with ``column_flips``,
numbers each layer in sorted key order, and keeps a key-to-id map for all
nodes.
The production graph must have the same keys, adjacency and levels; see
tests/test_flipgraph.py::TestHalfTurnEnumeration.
"""

from zonotiling.core import PointConfig, key_store
from zonotiling.flipgraph import column_flips


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

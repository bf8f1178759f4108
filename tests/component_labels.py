"""Per-node component labels, read off a stored labelling's partition.

``components_excluding_levels`` stores each labelling as its pairs and its
partition, ``members`` and ``starts``, with no per-node label array.  Tests
that compare components node by node build the labels here: a node's label
is its component's smallest member, members[starts[c]].
"""

from zonotiling.flipgraph import components_excluding_levels


def component_labels(graph, deleted_levels) -> list[int]:
    """Each node's component label, -1 for a node the partition misses."""
    _, members, starts = components_excluding_levels(graph, deleted_levels)
    labels = [-1] * len(graph)
    for a, b in zip(starts, starts[1:]):
        for v in members[a:b]:
            labels[v] = members[a]
    return labels

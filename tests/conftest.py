import sys

import hypothesis
import pytest

from zonotiling import (
    cli,
    enumerate_tilings,
    equivalence_classes,
    regularity,
    standard_config,
    tiling,
)

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None
)
hypothesis.settings.load_profile("default")


@pytest.fixture(autouse=True)
def fresh_cli_graph():
    """Empty the CLI's one-graph slot, so a test that counts enumerations,
    LPs or tilings does not read what an earlier test left on the graph."""
    cli._graph.cache_clear()


@pytest.fixture
def decoded_keys(monkeypatch):
    """The keys the package decodes to tile offsets during the test, spied on
    under every name a ``zonotiling`` module binds ``key_offsets`` to."""
    keys, real = [], tiling.key_offsets

    def spy(n, key):
        keys.append(key)
        return real(n, key)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "zonotiling" and getattr(module, "key_offsets", None) is real:
            monkeypatch.setattr(module, "key_offsets", spy)
    return keys


@pytest.fixture(scope="session")
def graphs():
    """Memoized flip graphs keyed by n (standard coordinates a_i = i)."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = enumerate_tilings(standard_config(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def certificates(graphs):
    """Memoized per-node slack-LP verdicts (h, det, value, pivots) keyed by n,
    one ``regularity._certify`` call per node; h is None when irregular."""
    cache = {}

    def get(n):
        if n not in cache:
            cfg = standard_config(n)
            cache[n] = tuple(regularity._certify(cfg, key) for key in graphs(n).keys)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def regulars(certificates):
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = frozenset(v for v, c in enumerate(certificates(n)) if c[0] is not None)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def k_class():
    """The node's k-class, as the partition code holds it."""
    return lambda graph, node, k: next(c for c in equivalence_classes(graph, {k}) if node in c)

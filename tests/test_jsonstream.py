import json

from hypothesis import example, given
from hypothesis import strategies as st

from zonotiling.jsonstream import _CHUNK, _PIECE, drain, json_pieces


def _lazy_and_plain(children):
    """Containers of drawn (value, reference) pairs: the value may be a list,
    tuple, generator or dict, the reference holds lists and dicts only."""

    def sequence(kind):
        return st.lists(children, max_size=6).map(
            lambda pairs: (kind(v for v, _ in pairs), [r for _, r in pairs])
        )

    dicts = st.dictionaries(st.text(max_size=4), children, max_size=5).map(
        lambda d: ({k: v for k, (v, _) in d.items()}, {k: r for k, (_, r) in d.items()})
    )
    return sequence(list) | sequence(tuple) | sequence(iter) | dicts


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@given(st.recursive(_SCALARS.map(lambda x: (x, x)), _lazy_and_plain, max_leaves=40))
def test_writer_equals_json_dumps(pair):
    value, reference = pair
    assert "".join(json_pieces(value)) == json.dumps(reference, indent=2, sort_keys=True)


def test_writer_equals_json_dumps_on_long_lists():
    # lists longer than one join, and iterators whose texts span several pieces
    ints = list(range(-3 * _CHUNK, 2 * _CHUNK))
    names = [f"\u00e9{i}\n" for i in range(_CHUNK + 1)]
    rows = [[i, i + 1, True] for i in range(_PIECE // 8)]
    reference = {"ints": ints, "names": names, "rows": rows, "nested": [ints, names, []]}
    value = {
        "ints": tuple(ints),
        "names": iter(names),
        "rows": (tuple(row) for row in rows),
        "nested": iter([iter(ints), names, iter(())]),
    }
    assert "".join(json_pieces(value)) == json.dumps(reference, indent=2, sort_keys=True)


def _spec(children):
    """A payload's shape: ("list" | "tuple" | "iter", [children]) or ("dict", {key: child})."""
    sequences = st.tuples(st.sampled_from(["list", "tuple", "iter"]), st.lists(children, max_size=5))
    dicts = st.dictionaries(st.text(max_size=3), children, max_size=4).map(lambda d: ("dict", d))
    return sequences | dicts


def _build(spec, log, path="$"):
    """A fresh payload of that shape whose iterators log each item they yield, and their end."""
    kind, body = spec
    if kind == "scalar":
        return body
    if kind == "dict":
        return {key: _build(child, log, f"{path}.{key}") for key, child in body.items()}
    children = [_build(child, log, f"{path}[{i}]") for i, child in enumerate(body)]
    if kind != "iter":
        return list(children) if kind == "list" else tuple(children)

    def items():
        for i, child in enumerate(children):
            log.append(f"{path}[{i}]")
            yield child
        log.append(f"{path} end")

    return items()


@given(st.recursive(_SCALARS.map(lambda x: ("scalar", x)), _spec, max_leaves=30))
@example(("dict", {"b": ("iter", [("scalar", 1)]), "a": ("tuple", [("iter", [])])}))
def test_drain_reads_iterators_as_the_writer_does(spec):
    # what a payload's generators print or record happens, in the same order,
    # whether it is written or drained
    written, drained = [], []
    "".join(json_pieces(_build(spec, written)))
    drain(_build(spec, drained))
    assert drained == written

import json

from hypothesis import given
from hypothesis import strategies as st

from zonotiling.jsonstream import _CHUNK, _PIECE, json_pieces


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

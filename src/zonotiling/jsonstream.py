"""JSON text written as a stream of pieces, in the bytes of ``json.dumps``.

``json_pieces(value)`` yields, piece by piece, exactly the text of
``json.dumps(value, indent=2, sort_keys=True)``, where lists, tuples and
iterators all count as lists.  A value that holds no iterator is formatted
as one piece.  An iterator is read one item at a time, so an artifact whose
large parts are generated as they are written is never held whole.  A list
of exactly ints or exactly strs is one join, which is where the text of a
large artifact is made fast.  CPython's C encoder runs only without
``indent``, so ``json.dumps(indent=2)`` itself would format every item in
Python.  ``drain(value)`` reads every iterator in the order ``json_pieces``
would, and formats nothing.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

_CHUNK = 4096  # list entries formatted per join
_PIECE = 1 << 16  # characters of an iterator's item texts written per piece
_WORDS = {None: "null", True: "true", False: "false"}
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _joined(items: list | tuple, pad: str) -> str | None:
    """Items that are all exactly ints, or all exactly strs, as list entries
    at indent ``pad`` in one string, joined a chunk at a time; None for any
    other items."""
    kinds = set(map(type, items))
    if kinds == {int}:
        form = int.__repr__
    elif kinds == {str}:
        form = encode_basestring_ascii
    else:
        return None
    comma = ",\n" + pad
    if len(items) <= _CHUNK:
        return comma.join(map(form, items))
    return comma.join(
        comma.join(map(form, items[i:i + _CHUNK])) for i in range(0, len(items), _CHUNK)
    )


def _text(value, pad: str) -> str | None:
    """The JSON text of ``value`` nested at indent ``pad``, in one string;
    None when it holds an iterator."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _WORDS[value]
    if not isinstance(value, (dict, list, tuple)):
        return None if isinstance(value, Iterator) else json.dumps(value)  # floats
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            text = _text(value[key], inner)
            if text is None:
                return None
            parts.append(encode_basestring_ascii(key) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    joined = _joined(value, inner)
    if joined is None:
        parts = [_text(item, inner) for item in value]
        if None in parts:
            return None
        joined = (",\n" + inner).join(parts)
    return "[\n" + inner + joined + "\n" + pad + "]"


def json_pieces(value, pad: str = "") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, nested at
    indent ``pad``, in pieces.

    Lists, tuples and iterators are all written as lists.  A value that
    holds no iterator is one piece, from ``_text``; an iterator's items are
    read one at a time, and their texts are written about ``_PIECE``
    characters at a time.  Dict keys must be strs.
    """
    text = _text(value, pad)
    if text is not None:
        yield text
        return
    inner = pad + "  "
    comma = ",\n" + inner
    if isinstance(value, dict):
        sep = "{\n" + inner
        for key in sorted(value):
            yield sep + encode_basestring_ascii(key) + ": "
            yield from json_pieces(value[key], inner)
            sep = comma
        yield "\n" + pad + "}"
        return
    sep = "[\n" + inner
    texts: list[str] = []
    size = 0
    for item in value:
        text = _text(item, inner)
        if text is not None:
            texts.append(text)
            size += len(text)
            if size < _PIECE:
                continue
        if texts:
            yield sep + comma.join(texts)
            sep = comma
            texts.clear()
            size = 0
        if text is None:
            yield sep
            yield from json_pieces(item, inner)
            sep = comma
    if texts:
        yield sep + comma.join(texts)
        sep = comma
    yield "\n" + pad + "]" if sep is comma else "[]"


def drain(value) -> None:
    """Exhaust every iterator in ``value`` in ``json_pieces``' order, formatting nothing.

    Dict values are read by sorted key, and list, tuple and iterator items
    one after another, each item whole before the next.  A scalar, or a
    list or tuple of scalars such as an edge (u, v, level), holds no
    iterator and is passed over.
    """
    if isinstance(value, dict):
        for key in sorted(value):
            drain(value[key])
    elif isinstance(value, (list, tuple, Iterator)):
        for item in value:
            kind = type(item)
            if kind not in _SCALARS and not (
                kind in (list, tuple) and _SCALARS.issuperset(map(type, item))
            ):
                drain(item)

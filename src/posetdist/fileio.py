"""Graph and poset files: JSON (primary), whitespace text (quick), DOT out.

JSON graph files look like::

    {"format_version": "1",
     "nodes": [{"id": "u", "label": "a"}, ...],
     "edges": [["u", "v"], ...]}

and poset files use ``elements`` / ``relations`` instead (a relation
[p, q] means p <= q).  The text form declares nodes first, one
``node <id> <label>`` per line, then one ``<src> <dst>`` pair per line;
``#`` starts a comment.  Files are read and written as UTF-8.  Saving
always canonicalizes (sorted keys, sorted node and edge lists, two-space
indent, non-ASCII as ``\\u`` escapes), so load-then-save is byte-stable.

A JSON file's node list is checked whole, each check one pass in C over
the list (:func:`_checked_whole`), and its edge list goes as it stands to
the graph or poset build.  There one pass over the edges builds the
graph's neighbour bitmasks and checks the edges: an entry that is no pair
or has an undeclared endpoint raises ValueError, an unhashable endpoint
TypeError.  Only a file that fails one of these checks, or has an id,
label or endpoint that is not a string, is walked entry by entry
(:func:`_walk_entries`); the walk reads ids, labels and endpoints through
``str()`` and raises a :class:`ParseError` naming the first bad entry.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Union

from .core import LabeledDigraph, PosetDigraph, build_poset_digraph
from .errors import ParseError, PosetDistError, ValidationError
from .line_digraph import HH, HT, TT, ExtendedLineDigraph

FORMAT_VERSION = "1"
_DOT_STYLES = {HT: "solid", HH: "dashed", TT: "dotted"}

PathLike = Union[str, Path]


def load_graph(path: PathLike) -> LabeledDigraph:
    """Read a labeled digraph from a JSON or text file."""
    return _load(path, "graph", _graph)


def load_poset(path: PathLike) -> PosetDigraph:
    """Read a labeled poset from a JSON or text file and build its digraph."""
    return _load(path, "poset", build_poset_digraph)


def _graph(nodes: list, pairs: list) -> LabeledDigraph:
    return LabeledDigraph([i for i, _ in nodes], dict(nodes), pairs)


def _load(path: PathLike, kind: str, build):
    """Parse ``path`` and build the result from its nodes and pairs.

    A JSON file whose nodes pass :func:`_checked_whole` hands its raw edge
    lists to ``build``, which checks every endpoint itself.  Only when that
    build raises ValueError or TypeError (a bad edge entry) are the lists
    walked, which raises the first bad entry's :class:`ParseError` or
    reads the pairs through ``str()`` for a second build.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", path=path) from exc
    if not text.lstrip().startswith("{"):
        return _built(path, build, *_parse_text(text, path))
    items, entries, node_key, edge_key = _json_lists(text, path, kind)
    nodes = _checked_whole(items, entries)
    if nodes is not None:
        try:
            return build(nodes, entries)
        except (ValueError, TypeError):
            pass  # some edge entry is bad or not a string pair: walk them
        except PosetDistError as exc:
            raise _invalid(path, exc) from exc
    return _built(path, build, *_walk_entries(items, entries, path, node_key, edge_key))


def _built(path: PathLike, build, nodes: list, pairs: list):
    try:
        return build(nodes, pairs)
    except (PosetDistError, ValueError, KeyError) as exc:
        raise _invalid(path, exc) from exc


def _invalid(path: PathLike, exc: Exception) -> ValidationError:
    return ValidationError(f"{path}: {exc}", cause=exc)


def _json_lists(text: str, path: PathLike, kind: str):
    """The node and edge lists of a JSON document, and their keys."""
    node_key, edge_key = (
        ("nodes", "edges") if kind == "graph" else ("elements", "relations")
    )
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object", path=path)
    for key in (node_key, edge_key):
        if key not in doc:
            raise ParseError(f"missing key {key!r}", path=path, field=key)
        if not isinstance(doc[key], list):
            raise ParseError(f"{key!r} must be a list", path=path, field=key)
    return doc[node_key], doc[edge_key], node_key, edge_key


_ID_LABEL = itemgetter("id", "label")


def _checked_whole(items: list, entries: list):
    """The ``(id, label)`` pairs of a node list, when every node is an
    object with a string id and label, no id repeats and every edge entry
    is a list; None otherwise.  Each check is one pass over a whole list.
    Edge endpoints are left to the graph or poset build, which checks
    them all at once."""
    if set(map(type, items)) - {dict} or set(map(type, entries)) - {list}:
        return None
    try:
        nodes = list(map(_ID_LABEL, items))
    except KeyError:
        return None
    if set(map(type, chain.from_iterable(nodes))) - {str}:
        return None
    if len(set(map(itemgetter(0), nodes))) != len(nodes):
        return None
    return nodes


def _walk_entries(items: list, entries: list, path: PathLike, node_key: str, edge_key: str):
    """Entry by entry: raise on the first bad one, naming it in ``field``.
    Ids, labels and endpoints are read through ``str()``."""
    nodes: list[tuple[str, str]] = []
    seen: set[str] = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "id" not in item or "label" not in item:
            raise ParseError(
                "expected an object with id and label", path=path, field=f"{node_key}[{i}]"
            )
        node_id = str(item["id"])
        if node_id in seen:
            raise ParseError(
                f"duplicate node id {node_id!r}", path=path, field=f"{node_key}[{i}]"
            )
        seen.add(node_id)
        nodes.append((node_id, str(item["label"])))

    pairs: list[tuple[str, str]] = []
    for i, item in enumerate(entries):
        if not isinstance(item, list) or len(item) != 2:
            raise ParseError(
                "expected a [source, target] pair", path=path, field=f"{edge_key}[{i}]"
            )
        src, dst = str(item[0]), str(item[1])
        for end in (src, dst):
            if end not in seen:
                raise ParseError(
                    f"undeclared node id {end!r}", path=path, field=f"{edge_key}[{i}]"
                )
        pairs.append((src, dst))
    return nodes, pairs


def _parse_text(text: str, path: PathLike):
    nodes: list[tuple[str, str]] = []
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) != 3:
                raise ParseError("expected: node <id> <label>", path=path, line=lineno)
            if parts[1] in seen:
                raise ParseError(f"duplicate node id {parts[1]!r}", path=path, line=lineno)
            seen.add(parts[1])
            nodes.append((parts[1], parts[2]))
        else:
            if len(parts) != 2:
                raise ParseError("expected: <src> <dst>", path=path, line=lineno)
            for end in parts:
                if end not in seen:
                    raise ParseError(f"undeclared node id {end!r}", path=path, line=lineno)
            pairs.append((parts[0], parts[1]))
    return nodes, pairs


def graph_to_json(g: LabeledDigraph) -> str:
    """Canonical JSON text for a graph: what ``json.dumps(doc,
    sort_keys=True, indent=2) + "\\n"`` writes for the document of
    ``format_version``, the nodes sorted by id and the edges sorted.

    Each id and label is encoded once (:func:`_scalar`); the encoded
    values are paired with ``zip`` and joined into the fixed layout with
    ``str.join`` over ``map`` (:func:`_pair_list`)."""
    ids = sorted(g.nodes)
    text = dict(zip(ids, map(_scalar, ids)))
    nodes = zip(text.values(), map(_scalar, map(g.node_labels.__getitem__, ids)))
    ends = map(text.__getitem__, chain.from_iterable(sorted(g.edges)))
    # the same iterator twice: each edge takes its two ends in turn
    edges = zip(ends, ends)
    return (
        f'{{\n  "edges": {_pair_list(edges, *_EDGE)},\n'
        f'  "format_version": {_scalar(FORMAT_VERSION)},\n'
        f'  "nodes": {_pair_list(nodes, *_NODE)}\n}}\n'
    )


# how an edge and a node entry open, separate their two values, and close
_EDGE = ("    [\n      ", ",\n      ", "\n    ]")
_NODE = ('    {\n      "id": ', ',\n      "label": ', "\n    }")


def _scalar(value) -> str:
    """One id or label as JSON: ``encode_basestring_ascii`` (C) for a
    string, ``json.dumps`` for any other scalar."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _pair_list(pairs, start: str, middle: str, end: str) -> str:
    """A JSON list at the second indent level of two-value entries, each
    written ``start + a + middle + b + end``."""
    body = f"{end},\n{start}".join(map(middle.join, pairs))
    return f"[\n{start}{body}{end}\n  ]" if body else "[]"


def save_graph(g: LabeledDigraph, path: PathLike) -> None:
    Path(path).write_text(graph_to_json(g), encoding="utf-8")


def eld_to_dot(eld: ExtendedLineDigraph) -> str:
    """DOT text for an extended line digraph, as the digraph ``eld``: one
    node per source edge, one styled edge per labeled edge (HT solid, HH
    dashed, TT dotted)."""
    def nid(e):
        return f'"{e[0]}->{e[1]}"'

    lines = ["digraph eld {"]
    for e in eld.nodes:
        la, lb = eld.node_labels[e]
        lines.append(f'  {nid(e)} [label="({la},{lb})"];')
    for e, f, rel in eld.labeled_edges:
        lines.append(f"  {nid(e)} -> {nid(f)} [style={_DOT_STYLES[rel]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""File formats and the command line front end."""

import json
import re
import subprocess
import sys
from itertools import chain, product
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import posetdist.clique as clique_module
import posetdist.fileio as fileio
from posetdist import (
    LabeledDigraph,
    ParseError,
    PosetDistError,
    ValidationError,
    build_poset_digraph,
    cli_main,
    extended_line_digraph,
    generate_instance,
    graph_to_json,
    load_graph,
    load_poset,
    save_graph,
    eld_to_dot,
)
from conftest import budget_pair, chain_pair, subprocess_env
from oracles import graph_json_by_dumps


def write(path, text: str):
    path.write_text(text)
    return str(path)


def graph_file(tmp_path, g: LabeledDigraph, name: str) -> str:
    p = tmp_path / name
    save_graph(g, p)
    return str(p)


POSET_CHAIN = """\
{
  "elements": [
    {"id": "a", "label": "x"},
    {"id": "b", "label": "x"},
    {"id": "c", "label": "y"}
  ],
  "relations": [["a", "b"], ["b", "c"]]
}
"""

POSET_SHUFFLED = """\
{
  "elements": [
    {"id": "d", "label": "x"},
    {"id": "e", "label": "y"},
    {"id": "f", "label": "x"}
  ],
  "relations": [["d", "e"], ["e", "f"]]
}
"""


class TestGraphJson:
    def test_round_trip_preserves_the_graph(self, tmp_path):
        g, _ = budget_pair()
        loaded = load_graph(graph_file(tmp_path, g, "g.json"))
        assert set(loaded.nodes) == set(g.nodes)
        assert loaded.node_labels == g.node_labels
        assert loaded.edge_set == g.edge_set

    def test_serialization_is_canonical(self, tmp_path):
        # loading and re-serializing reproduces the file byte for byte
        g, _ = budget_pair()
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert graph_to_json(load_graph(path)) == path.read_text()

    def test_serialization_sorts_nodes_and_edges(self):
        g = LabeledDigraph(
            ("b", "a"), {"b": "x", "a": "x"}, (("b", "a"),)
        )
        doc = json.loads(graph_to_json(g))
        assert doc["format_version"] == "1"
        assert [n["id"] for n in doc["nodes"]] == ["a", "b"]
        assert doc["edges"] == [["b", "a"]]

    def test_numeric_ids_are_coerced_to_strings(self, tmp_path):
        path = write(
            tmp_path / "g.json",
            '{"nodes": [{"id": 1, "label": "x"}, {"id": 2, "label": "x"}],'
            ' "edges": [[1, 2]]}',
        )
        g = load_graph(path)
        assert set(g.nodes) == {"1", "2"}
        assert g.edge_set == {("1", "2")}


@st.composite
def text_graphs(draw):
    """Graphs whose ids and labels are any text: non-ASCII, quotes,
    backslashes, control characters and lone surrogates included."""
    ids = draw(st.lists(st.text(), unique=True, max_size=8))
    labels = {v: draw(st.text()) for v in ids}
    pool = list(product(ids, repeat=2))
    edges = draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
    return LabeledDigraph(ids, labels, edges)


class TestGraphJsonWriter:
    """``graph_to_json`` writes what ``json.dumps`` writes for the document."""

    @given(text_graphs())
    @example(LabeledDigraph(['"\\\ud800\x01é'], {'"\\\ud800\x01é': "☃\n"}, []))
    def test_any_text_matches_json_dumps(self, g):
        assert graph_to_json(g) == graph_json_by_dumps(g)

    @pytest.mark.parametrize(
        "g",
        [
            LabeledDigraph(["a", "b"], {"a": "x", "b": "y"}, []),
            LabeledDigraph([], {}, []),
            LabeledDigraph([3, 1, 2], {3: "x", 1: "y", 2: 7}, [(3, 1), (1, 2), (3, 2)]),
            LabeledDigraph(["a", "b", "c"], {"a": 1, "b": True, "c": 1.0}, [("a", "c")]),
            generate_instance("path-closure", 40, 6, 0.15, 0),
        ],
        ids=["no edges", "no nodes", "int ids", "equal scalar labels", "path-closure"],
    )
    def test_edge_cases_match_json_dumps(self, g):
        assert graph_to_json(g) == graph_json_by_dumps(g)

    def test_non_ascii_is_escaped_and_read_back(self, tmp_path):
        g = LabeledDigraph(["é", "b"], {"é": "☃", "b": "x"}, [("é", "b")])
        path = tmp_path / "g.json"
        save_graph(g, path)
        raw = path.read_bytes()
        assert raw.isascii() and b"\\u00e9" in raw and b"\\u2603" in raw
        assert load_graph(path).edge_set == g.edge_set


class TestGraphText:
    def test_text_format(self, tmp_path):
        path = write(
            tmp_path / "g.txt",
            "# demo\n"
            "node u alpha\n"
            "node v alpha\n"
            "node w beta\n"
            "\n"
            "w u  # comments may trail\n"
            "u v\n"
            "w v\n",
        )
        g = load_graph(path)
        expected, _ = chain_pair()
        assert set(g.nodes) == set(expected.nodes)
        assert g.node_labels == expected.node_labels
        assert g.edge_set == expected.edge_set

    def test_both_formats_agree(self, tmp_path):
        g, _ = chain_pair()
        via_json = load_graph(graph_file(tmp_path, g, "g.json"))
        via_text = load_graph(
            write(
                tmp_path / "g.txt",
                "node u alpha\nnode v alpha\nnode w beta\nw u\nu v\nw v\n",
            )
        )
        assert via_json.edge_set == via_text.edge_set
        assert via_json.node_labels == via_text.node_labels


class TestParseErrors:
    def test_invalid_json(self, tmp_path):
        path = write(tmp_path / "g.json", '{"nodes": [')
        with pytest.raises(ParseError, match="invalid JSON"):
            load_graph(path)

    def test_non_object_input_is_read_under_text_rules(self, tmp_path):
        # only files opening with "{" are treated as JSON
        path = write(tmp_path / "g.json", "[1, 2]")
        with pytest.raises(ParseError, match="line 1"):
            load_graph(path)

    def test_missing_key(self, tmp_path):
        path = write(tmp_path / "g.json", '{"nodes": []}')
        with pytest.raises(ParseError, match="edges"):
            load_graph(path)

    def test_key_must_be_list(self, tmp_path):
        path = write(tmp_path / "g.json", '{"nodes": {}, "edges": []}')
        with pytest.raises(ParseError, match="must be a list"):
            load_graph(path)

    def test_node_shape(self, tmp_path):
        path = write(
            tmp_path / "g.json", '{"nodes": [{"id": "a"}], "edges": []}'
        )
        with pytest.raises(ParseError, match=r"nodes\[0\]"):
            load_graph(path)

    def test_duplicate_node_id_names_the_entry(self, tmp_path):
        path = write(
            tmp_path / "g.json",
            '{"nodes": [{"id": "a", "label": "x"}, {"id": "a", "label": "y"}],'
            ' "edges": []}',
        )
        with pytest.raises(ParseError, match=r"duplicate node id 'a'.*|nodes\[1\]"):
            load_graph(path)

    def test_edge_shape(self, tmp_path):
        path = write(
            tmp_path / "g.json",
            '{"nodes": [{"id": "a", "label": "x"}], "edges": [["a"]]}',
        )
        with pytest.raises(ParseError, match=r"\[source, target\]"):
            load_graph(path)

    def test_undeclared_endpoint(self, tmp_path):
        path = write(
            tmp_path / "g.json",
            '{"nodes": [{"id": "a", "label": "x"}], "edges": [["a", "zz"]]}',
        )
        with pytest.raises(ParseError, match="undeclared node id 'zz'"):
            load_graph(path)

    def test_text_bad_node_line_reports_line_number(self, tmp_path):
        path = write(tmp_path / "g.txt", "node a x\nnode b\n")
        with pytest.raises(ParseError, match="line 2"):
            load_graph(path)

    def test_text_bad_edge_line(self, tmp_path):
        path = write(tmp_path / "g.txt", "node a x\na a a\n")
        with pytest.raises(ParseError, match="<src> <dst>"):
            load_graph(path)

    def test_text_duplicate_node(self, tmp_path):
        path = write(tmp_path / "g.txt", "node a x\nnode a y\n")
        with pytest.raises(ParseError, match="duplicate node id"):
            load_graph(path)

    def test_text_undeclared_endpoint(self, tmp_path):
        path = write(tmp_path / "g.txt", "node a x\na ghost\n")
        with pytest.raises(ParseError, match="undeclared"):
            load_graph(path)

    def test_error_message_includes_the_path(self, tmp_path):
        path = write(tmp_path / "broken.json", "{")
        with pytest.raises(ParseError, match="broken.json"):
            load_graph(path)


def entries_doc(node_key: str, edge_key: str, nodes: list, edges: list) -> str:
    return json.dumps({node_key: nodes, edge_key: edges}, indent=2)


GOOD_NODES = [{"id": f"n{i}", "label": "ab"[i % 2]} for i in range(6)]
GOOD_EDGES = [["n0", "n1"], ["n1", "n2"], ["n0", "n2"], ["n2", "n3"], ["n3", "n4"], ["n4", "n5"]]


@pytest.mark.parametrize(
    "load, node_key, edge_key",
    [(load_graph, "nodes", "edges"), (load_poset, "elements", "relations")],
    ids=["graph", "poset"],
)
class TestEntriesPastTheFirst:
    """A bad entry deep in a list is named by its own index, in graph and
    poset files alike, and the message is the one the entry walk gives."""

    def check(self, tmp_path, load, text, field, message):
        path = write(tmp_path / "f.json", text)
        with pytest.raises(ParseError) as got:
            load(path)
        assert got.value.field == field
        assert str(got.value) == f"{path}: field {field}: {message}"

    def test_duplicate_node_id(self, tmp_path, load, node_key, edge_key):
        nodes = GOOD_NODES[:5] + [{"id": "n2", "label": "a"}]
        text = entries_doc(node_key, edge_key, nodes, GOOD_EDGES[:2])
        self.check(tmp_path, load, text, f"{node_key}[5]", "duplicate node id 'n2'")

    def test_missing_label(self, tmp_path, load, node_key, edge_key):
        nodes = [dict(n) for n in GOOD_NODES]
        del nodes[4]["label"]
        text = entries_doc(node_key, edge_key, nodes, GOOD_EDGES)
        self.check(
            tmp_path, load, text, f"{node_key}[4]", "expected an object with id and label"
        )

    def test_undeclared_endpoint(self, tmp_path, load, node_key, edge_key):
        edges = GOOD_EDGES[:3] + [["n2", "zz"]] + GOOD_EDGES[3:]
        text = entries_doc(node_key, edge_key, GOOD_NODES, edges)
        self.check(tmp_path, load, text, f"{edge_key}[3]", "undeclared node id 'zz'")

    def test_three_element_edge(self, tmp_path, load, node_key, edge_key):
        edges = GOOD_EDGES[:3] + [["n2", "n3", "n4"]] + GOOD_EDGES[3:]
        text = entries_doc(node_key, edge_key, GOOD_NODES, edges)
        self.check(
            tmp_path, load, text, f"{edge_key}[3]", "expected a [source, target] pair"
        )

    def test_node_errors_come_before_edge_errors(self, tmp_path, load, node_key, edge_key):
        nodes = GOOD_NODES + [{"id": "n0", "label": "a"}]
        edges = [["zz", "n0"]] + GOOD_EDGES
        text = entries_doc(node_key, edge_key, nodes, edges)
        self.check(tmp_path, load, text, f"{node_key}[6]", "duplicate node id 'n0'")

    def test_int_ids_and_labels_load_as_strings(self, tmp_path, load, node_key, edge_key):
        nodes = [{"id": i, "label": i % 2} for i in range(3)] + [{"id": "3", "label": "1"}]
        edges = [[0, 1], [1, "2"], [2, 3], ["0", 2], [0, 3], [1, 3]]
        path = write(tmp_path / "f.json", entries_doc(node_key, edge_key, nodes, edges))
        loaded = load(path)
        g = loaded if isinstance(loaded, LabeledDigraph) else loaded.graph
        assert g.nodes == ("0", "1", "2", "3")
        assert g.node_labels == {"0": "0", "1": "1", "2": "0", "3": "1"}
        assert set(g.edges) == {
            ("0", "1"), ("1", "2"), ("2", "3"), ("0", "2"), ("0", "3"), ("1", "3")
        }
        assert all(type(v) is str for e in g.edges for v in e)


@st.composite
def entry_lists(draw):
    """A ``nodes`` and an ``edges`` list, mostly well formed: node ``i``
    has the id ``"n<i>"`` (or, in half the draws, any of ``"n<i>"``,
    ``"<i>"`` and the int ``i``, with a string or int label), and edges
    join declared ids.  At most one bad node (no label, no object, a
    repeated id) and one bad edge (an undeclared, unhashable or int end, a
    wrong length, no list) go in anywhere."""
    n = draw(st.integers(0, 5))
    ids = [f"n{i}" for i in range(n)]
    labels = ["xy"[i % 2] for i in range(n)]
    if draw(st.booleans()):
        ids = [draw(st.sampled_from([f"n{i}", str(i), i])) for i in range(n)]
        labels = [draw(st.sampled_from(["x", 0])) for _ in range(n)]
    items = [{"id": v, "label": a} for v, a in zip(ids, labels)]
    entries = []
    if ids:
        end = st.sampled_from(ids)
        entries = draw(st.lists(st.lists(end, min_size=2, max_size=2), max_size=8))
    repeat = {"id": ids[-1] if ids else "n0", "label": "x"}
    bad_node = st.sampled_from([{"id": "n9"}, ["n0", "x"], repeat, repeat])
    bad_end = st.sampled_from(["zz", ["n0"], 7])
    bad_edge = st.one_of(
        st.lists(st.one_of(st.sampled_from(ids or ["n0"]), bad_end), min_size=2, max_size=2),
        st.lists(st.sampled_from(ids or ["n0"]), min_size=1, max_size=3),
        st.just({"source": "n0"}),
    )
    for bad, target in ((bad_node, items), (bad_edge, entries)):
        if draw(st.booleans()):
            target.insert(draw(st.integers(0, len(target))), draw(bad))
    return items, entries


def _graph_from_pairs(nodes, pairs) -> LabeledDigraph:
    return LabeledDigraph([i for i, _ in nodes], dict(nodes), pairs)


@pytest.mark.parametrize(
    "load, node_key, edge_key, build",
    [
        (load_graph, "nodes", "edges", _graph_from_pairs),
        (load_poset, "elements", "relations", build_poset_digraph),
    ],
    ids=["graph", "poset"],
)
@settings(max_examples=300)
@given(lists=entry_lists())
def test_loaders_build_what_the_walk_reads_or_raise_its_error(
    tmp_path_factory, load, node_key, edge_key, build, lists
):
    """A file of the generated lists loads to what the build makes of the
    entry walk's nodes and pairs.  Where the walk raises, the loader raises
    the same ParseError (message and field); where that build raises, the
    loader raises a ValidationError around the same error."""
    text = entries_doc(node_key, edge_key, *lists)
    path = write(tmp_path_factory.getbasetemp() / f"walked-{node_key}.json", text)
    doc = json.loads(text)
    try:
        nodes, pairs = fileio._walk_entries(
            doc[node_key], doc[edge_key], path, node_key, edge_key
        )
    except ParseError as walk_error:
        with pytest.raises(ParseError) as raised:
            load(path)
        assert (str(raised.value), raised.value.field) == (str(walk_error), walk_error.field)
        return
    try:
        expected = build(nodes, pairs)
    except (PosetDistError, ValueError, KeyError) as build_error:
        with pytest.raises(ValidationError) as raised:
            load(path)
        assert str(raised.value) == f"{path}: {build_error}"
        assert type(raised.value.cause) is type(build_error)
        return
    loaded = load(path)
    assert loaded == expected
    g = loaded if isinstance(loaded, LabeledDigraph) else loaded.graph
    assert all(type(v) is str for v in chain(g.nodes, g.node_labels.values(), *g.edges))


class TestLoadPoset:
    def test_chain_is_closed_on_load(self, tmp_path):
        p = load_poset(write(tmp_path / "p.json", POSET_CHAIN))
        assert p.graph.edge_set == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_poset_uses_element_keys(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            '{"nodes": [{"id": "a", "label": "x"}], "edges": []}',
        )
        with pytest.raises(ParseError, match="elements"):
            load_poset(path)

    def test_antisymmetry_violation_becomes_validation_error(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            '{"elements": [{"id": "a", "label": "x"}, {"id": "b", "label": "x"}],'
            ' "relations": [["a", "b"], ["b", "a"]]}',
        )
        with pytest.raises(ValidationError, match="p.json"):
            load_poset(path)

    def test_empty_poset_rejected(self, tmp_path):
        path = write(tmp_path / "p.json", '{"elements": [], "relations": []}')
        with pytest.raises(ValidationError):
            load_poset(path)

    def test_disconnected_poset_rejected(self, tmp_path):
        path = write(
            tmp_path / "p.json",
            '{"elements": [{"id": "a", "label": "x"}, {"id": "b", "label": "x"}],'
            ' "relations": []}',
        )
        with pytest.raises(ValidationError):
            load_poset(path)


class TestDotExport:
    def test_single_edge(self):
        g = LabeledDigraph(("s", "t"), {"s": "a", "t": "b"}, (("s", "t"),))
        assert eld_to_dot(extended_line_digraph(g)) == (
            "digraph eld {\n"
            '  "s->t" [label="(a,b)"];\n'
            "}\n"
        )

    def test_chain_styles(self):
        g, _ = chain_pair()
        dot = eld_to_dot(extended_line_digraph(g))
        assert dot.startswith("digraph eld {")
        assert dot.count("[style=solid]") == 1
        assert dot.count("[style=dotted]") == 2
        assert dot.count("[style=dashed]") == 2
        assert '"w->u" [label="(beta,alpha)"];' in dot


class TestCliDistance:
    def test_json_payload(self, tmp_path, capsys):
        g, g2 = budget_pair()
        code = cli_main(
            [
                "distance",
                graph_file(tmp_path, g, "a.json"),
                graph_file(tmp_path, g2, "b.json"),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 0.5
        assert payload["distance_exact"] == "1/2"
        assert payload["dmces"] == 2
        assert payload["normalizer"] == 4
        assert payload["solver"] == "clique"
        assert payload["elapsed_ms"] >= 0
        assert "witness" not in payload

    def test_plain_output(self, tmp_path, capsys):
        g, g2 = budget_pair()
        code = cli_main(
            [
                "distance",
                graph_file(tmp_path, g, "a.json"),
                graph_file(tmp_path, g2, "b.json"),
                "--solver",
                "brute",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "distance 1/2"
        assert lines[1] == "dmces 2 / 4"
        assert lines[2] == "solver brute"

    def test_self_distance_zero(self, tmp_path, capsys):
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        assert cli_main(["distance", path, path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "distance 0"

    def test_witness_pairs_are_valid(self, tmp_path, capsys):
        g, g2 = budget_pair()
        code = cli_main(
            [
                "distance",
                graph_file(tmp_path, g, "a.json"),
                graph_file(tmp_path, g2, "b.json"),
                "--json",
                "--witness",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for a, b in payload["witness"]:
            assert a in g.node_labels and b in g2.node_labels
            assert g.node_labels[a] == g2.node_labels[b]

    def test_small_branching_closures_take_the_clique_route(self, tmp_path, capsys):
        g, g2 = (generate_instance("closure", 10, 3, 0.3, s) for s in (0, 1))
        assert not g.report.per_label_path
        files = [graph_file(tmp_path, g, "a.json"), graph_file(tmp_path, g2, "b.json")]
        payloads = []
        for extra in ([], ["--solver", "alg2"]):
            assert cli_main(["distance", *files, "--json", *extra]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        auto, alg2 = payloads
        assert auto["solver"] == "clique"
        assert alg2["solver"] == "alg2"
        assert auto["dmces"] == alg2["dmces"]
        assert auto["distance_exact"] == alg2["distance_exact"]

    def test_poset_mode(self, tmp_path, capsys):
        code = cli_main(
            [
                "distance",
                write(tmp_path / "p.json", POSET_CHAIN),
                write(tmp_path / "q.json", POSET_SHUFFLED),
                "--poset",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance_exact"] == "1/3"
        assert payload["solver"] == "alg3"

    def test_poset_mode_runs_the_named_solver(self, tmp_path, capsys):
        files = [
            write(tmp_path / "p.json", POSET_CHAIN),
            write(tmp_path / "q.json", POSET_SHUFFLED),
        ]
        payloads = []
        for extra in ([], ["--solver", "alg2"]):
            assert cli_main(["distance", *files, "--poset", "--json", *extra]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        auto, alg2 = payloads
        assert auto["solver"] == "alg3"
        assert alg2["solver"] == "alg2"
        assert alg2["dmces"] == auto["dmces"]


class TestCliOtherCommands:
    def test_dmces_plain(self, tmp_path, capsys):
        g, g2 = budget_pair()
        code = cli_main(
            [
                "dmces",
                graph_file(tmp_path, g, "a.json"),
                graph_file(tmp_path, g2, "b.json"),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "2"

    def test_dmces_witness_lines(self, tmp_path, capsys):
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        assert cli_main(["dmces", path, path, "--witness"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "3"
        assert [s.strip() for s in out[1:]] == ["u -> u", "v -> v", "w -> w"]

    def test_mcis(self, tmp_path, capsys):
        g, g2 = chain_pair()
        a = graph_file(tmp_path, g, "a.json")
        b = graph_file(tmp_path, g2, "b.json")
        assert cli_main(["mcis", a, b]) == 0
        assert capsys.readouterr().out.strip() == "3"
        assert cli_main(["mcis", a, b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mcis"] == 3
        assert sorted(payload["pairs"]) == [["u", "u'"], ["v", "v'"], ["w", "w'"]]

    def test_plain_mcis_prints_the_json_size_without_the_witness_walk(
        self, tmp_path, capsys, monkeypatch
    ):
        a = graph_file(tmp_path, generate_instance("wso", 10, 2, 0.3, 5), "a.json")
        b = graph_file(tmp_path, generate_instance("wso", 10, 2, 0.3, 6), "b.json")
        assert cli_main(["mcis", a, b, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mcis"] == len(payload["pairs"]) > 1

        def refuse(graph):
            raise AssertionError("plain mcis ran the witness walk")

        monkeypatch.setattr(clique_module, "max_clique", refuse)
        assert cli_main(["mcis", a, b]) == 0
        assert capsys.readouterr().out == f"{payload['mcis']}\n"

    def test_mcis_with_an_unmatched_self_loop(self, tmp_path, capsys):
        g = LabeledDigraph(("a", "b"), {"a": "x", "b": "x"}, (("a", "a"), ("a", "b")))
        h = LabeledDigraph(("c", "d"), {"c": "x", "d": "x"}, (("c", "d"),))
        a = graph_file(tmp_path, g, "a.json")
        b = graph_file(tmp_path, h, "b.json")
        assert cli_main(["mcis", a, b, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"mcis": 1, "pairs": [["b", "c"]]}

    @pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
    def test_mcis_json_pairs_sorted_under_any_hash_seed(self, tmp_path, hash_seed):
        a = graph_file(tmp_path, generate_instance("wso", 8, 2, 0.4, 1), "a.json")
        b = graph_file(tmp_path, generate_instance("wso", 8, 2, 0.4, 2), "b.json")
        proc = subprocess.run(
            [sys.executable, "-m", "posetdist.cli", "mcis", a, b, "--json"],
            capture_output=True,
            text=True,
            env=subprocess_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0
        pairs = json.loads(proc.stdout)["pairs"]
        assert len(pairs) > 1
        assert pairs == sorted(pairs)

    def test_eld_listing_and_dot(self, tmp_path, capsys):
        g, _ = chain_pair()
        out_dot = tmp_path / "out.dot"
        code = cli_main(
            ["eld", graph_file(tmp_path, g, "a.json"), "--dot", str(out_dot)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "w->u (beta,alpha)" in out
        assert "[HT]" in out and "[TT]" in out and "[HH]" in out
        assert out_dot.read_text().startswith("digraph eld {")

    def test_validate_good(self, tmp_path, capsys):
        g, _ = chain_pair()
        code = cli_main(["validate", graph_file(tmp_path, g, "a.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wso: yes" in out
        assert "transitively_closed: yes" in out
        assert "per_label_path: yes" in out

    def test_validate_bad_exits_two(self, tmp_path, capsys):
        two_cycle = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "x"}, (("a", "b"), ("b", "a"))
        )
        code = cli_main(["validate", graph_file(tmp_path, two_cycle, "a.json")])
        assert code == 2
        out = capsys.readouterr().out
        assert "oriented: no" in out
        assert "wso: no" in out

    def test_validate_self_loop_breaks_the_label_path(self, tmp_path, capsys):
        loop = LabeledDigraph(
            ("a", "b"), {"a": "x", "b": "y"}, (("a", "a"), ("a", "b"))
        )
        code = cli_main(["validate", graph_file(tmp_path, loop, "a.json")])
        assert code == 2
        out = capsys.readouterr().out
        assert "simple: no" in out
        assert "per_label_path: no" in out

    def test_gen_is_deterministic(self, capsys):
        argv = [
            "gen", "--kind", "closure", "--nodes", "6", "--labels", "2",
            "--density", "0.4", "--seed", "7",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["format_version"] == "1"
        assert len(doc["nodes"]) == 6

    def test_gen_to_file_then_distance(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["gen", "--kind", "wso", "--nodes", "5", "--labels", "2",
                "--density", "0.5"]
        assert cli_main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert cli_main(base + ["--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        assert cli_main(["distance", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["distance"] <= 1.0

    def test_bench_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code = cli_main(
            [
                "bench", "--sizes", "4", "--trials", "2", "--kind", "closure",
                "--seed", "3", "--csv", str(out_csv),
            ]
        )
        assert code == 0
        text = out_csv.read_text()
        header, *rows = [r for r in text.splitlines() if r]
        assert header == "solver,n_nodes,n_edges,value,elapsed_ms,agree"
        assert rows
        assert all(r.endswith("True") for r in rows)

    def test_bench_exits_2_on_a_pair_no_solver_audits(self, capsys):
        argv = "bench --kind wso --sizes 20 --trials 1 --labels 2 --density 0.5 --seed 0"
        assert cli_main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no solver audits this pair" in err

    def test_readme_bench_grids_run(self, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        commands = re.findall(r"^posetdist (bench --kind .*)$", readme.read_text(), re.M)
        assert len(commands) == 3
        for command in commands:
            assert cli_main(command.split()) == 0
            assert capsys.readouterr().out.startswith("solver,")


class TestCliExitCodes:
    def test_missing_file(self, capsys):
        assert cli_main(["distance", "/nonexistent/a.json", "/nonexistent/b.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", "{nope")
        assert cli_main(["validate", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solver_precondition_failure(self, tmp_path, capsys):
        g, _ = budget_pair()  # cyclic, so the closure solvers refuse it
        path = graph_file(tmp_path, g, "a.json")
        assert cli_main(["distance", path, path, "--solver", "alg2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_64(self, tmp_path, capsys):
        assert cli_main([]) == 64
        assert cli_main(["no-such-command"]) == 64
        assert cli_main(["distance", "only-one-arg"]) == 64
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        assert cli_main(["distance", path, path, "--solver", "simplex"]) == 64
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "distance" in capsys.readouterr().out

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, tmp_path, capsys):
        from posetdist.cli import _build_parser

        g, g2 = chain_pair()
        a, b = graph_file(tmp_path, g, "a.json"), graph_file(tmp_path, g2, "b.json")
        calls = [
            ["distance", a],
            ["distance", a, b, "--witness"],
            ["--help"],
            ["dmces", a, b],
            ["mcis", a, b, "--json"],
            ["validate", a],
        ]

        def run(fresh: bool) -> list[tuple[int, str, str]]:
            seen = []
            for argv in calls:
                if fresh:
                    _build_parser.cache_clear()
                code = cli_main(argv)
                seen.append((code, *capsys.readouterr()))
            return seen

        _build_parser.cache_clear()
        reused = run(fresh=False)
        assert _build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused] == [64, 0, 0, 0, 0, 0]
        assert reused == run(fresh=True)

    def test_internal_error_exits_one(self, tmp_path, capsys, monkeypatch):
        import posetdist.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(cli_module, "d_e", boom)
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        assert cli_main(["distance", path, path]) == 1
        assert "internal error" in capsys.readouterr().err

    def test_runtime_never_imports_networkx(self, tmp_path):
        # networkx is a test oracle only; with its import blocked, the
        # generator, the order utilities, the ELD cross-check and the CLI
        # must all still run
        script = """
import sys
sys.modules["networkx"] = None
import posetdist as pd

out, poset = sys.argv[1:]
for kind in pd.KINDS:
    pd.generate_instance(kind, 8, 2, 0.4, 1)
p = pd.build_poset_digraph([("a", "x"), ("b", "x"), ("c", "y")], [("a", "b"), ("b", "c")])
pd.transitive_reduction(p.graph)
pd.predecessors(p.graph, "c")
assert pd.structure_commutes(pd.generate_instance("wso", 8, 2, 0.4, 1))
gen = ["gen", "--kind", "closure", "--nodes", "6", "--labels", "2",
       "--density", "0.5", "--seed", "1", "--out", out]
assert pd.cli_main(gen) == 0
assert pd.cli_main(["distance", "--poset", poset, poset]) == 0
"""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(tmp_path / "g.json"),
                write(tmp_path / "p.json", POSET_CHAIN),
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert load_graph(tmp_path / "g.json").report.is_transitively_closed

    def test_module_entry_point(self, tmp_path):
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        proc = subprocess.run(
            [sys.executable, "-m", "posetdist.cli", "dmces", path, path],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"

    @pytest.mark.parametrize("encoding, code", [("utf-8", 0), ("latin-1", 2)])
    def test_files_are_read_as_utf8_under_any_locale(self, tmp_path, encoding, code):
        # the C locale would decode as ASCII; a file that is not UTF-8 is
        # a parse error (exit 2), not an internal one
        text = '{"nodes": [{"id": "a", "label": "é"}, {"id": "b", "label": "é"}],'
        path = tmp_path / "g.json"
        path.write_bytes((text + ' "edges": [["a", "b"]]}').encode(encoding))
        locale = subprocess_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run(
            [sys.executable, "-m", "posetdist", "validate", str(path)],
            capture_output=True,
            text=True,
            env=locale,
        )
        assert proc.returncode == code, proc.stderr
        assert "internal error" not in proc.stderr
        script = (
            "import sys, posetdist as pd\n"
            "try:\n"
            "    print(pd.load_graph(sys.argv[1]).node_labels['a'] == '\\u00e9')\n"
            "except pd.ParseError as exc:\n"
            "    print('ParseError', exc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=locale,
        )
        assert proc.returncode == 0, proc.stderr
        expected = "True" if encoding == "utf-8" else f"ParseError {path}: not UTF-8"
        assert proc.stdout.startswith(expected)

    def test_package_entry_point_is_silent(self, tmp_path):
        # ``python -m posetdist`` runs ``__main__``, so runpy never meets
        # the ``posetdist.cli`` that the package import already loaded
        g, _ = chain_pair()
        path = graph_file(tmp_path, g, "a.json")
        proc = subprocess.run(
            [sys.executable, "-m", "posetdist", "dmces", path, path],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"
        assert proc.stderr == ""

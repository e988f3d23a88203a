"""Seeded instance generation: determinism and per-kind guarantees."""

import hashlib
import itertools
import math

import pytest

from posetdist import (
    InfeasibleParameters,
    KINDS,
    generate_instance,
    graph_to_json,
    validate_properties,
)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_graph(self, kind):
        a = generate_instance(kind, 7, 2, 0.4, seed=123)
        b = generate_instance(kind, 7, 2, 0.4, seed=123)
        assert a.nodes == b.nodes
        assert a.node_labels == b.node_labels
        assert a.edges == b.edges

    @pytest.mark.parametrize("kind", KINDS)
    def test_seeds_vary_the_instance(self, kind):
        edge_sets = {
            generate_instance(kind, 8, 2, 0.4, seed=s).edges for s in range(10)
        }
        assert len(edge_sets) > 1


class TestPostconditions:
    @pytest.mark.parametrize("seed", range(25))
    def test_wso(self, seed):
        g = generate_instance("wso", 2 + seed % 8, 1 + seed % 3, 0.45, seed)
        report = validate_properties(g)
        assert report.is_wso
        assert g.edges

    @pytest.mark.parametrize("seed", range(25))
    def test_closure(self, seed):
        g = generate_instance("closure", 2 + seed % 8, 1 + seed % 3, 0.45, seed)
        report = validate_properties(g)
        assert report.is_wso
        assert report.is_acyclic
        assert report.is_transitively_closed

    @pytest.mark.parametrize("seed", range(25))
    def test_path_closure(self, seed):
        g = generate_instance(
            "path-closure", 2 + seed % 8, 1 + seed % 3, 0.45, seed
        )
        report = validate_properties(g)
        assert report.is_wso
        assert report.is_acyclic
        assert report.is_transitively_closed
        assert report.per_label_path

    def test_node_and_label_counts(self):
        g = generate_instance("wso", 9, 3, 0.5, seed=5)
        assert len(g.nodes) == 9
        assert set(g.node_labels.values()) <= {"L0", "L1", "L2"}


class TestExtremes:
    def test_single_label_zero_density_is_a_total_order(self):
        # the label chain is the only edge source, and closing a chain
        # over n nodes yields all n(n-1)/2 comparabilities
        g = generate_instance("path-closure", 6, 1, 0.0, seed=9)
        assert len(g.edges) == math.comb(6, 2)
        assert validate_properties(g).per_label_path

    def test_full_density_wso_is_a_tournament(self):
        g = generate_instance("wso", 6, 2, 1.0, seed=1)
        assert len(g.edges) == math.comb(6, 2)

    def test_full_density_closure_is_a_total_order(self):
        g = generate_instance("closure", 6, 2, 1.0, seed=1)
        assert len(g.edges) == math.comb(6, 2)
        assert validate_properties(g).is_transitively_closed

    def test_more_labels_than_nodes(self):
        g = generate_instance("path-closure", 3, 5, 0.9, seed=4)
        assert validate_properties(g).per_label_path


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(InfeasibleParameters, match="unknown kind"):
            generate_instance("dag", 5, 2, 0.5, seed=0)

    def test_too_few_nodes(self):
        with pytest.raises(InfeasibleParameters, match="2 nodes"):
            generate_instance("wso", 1, 2, 0.5, seed=0)

    def test_too_few_labels(self):
        with pytest.raises(InfeasibleParameters, match="1 label"):
            generate_instance("wso", 5, 0, 0.5, seed=0)

    @pytest.mark.parametrize("density", (-0.1, 1.1))
    def test_density_out_of_range(self, density):
        with pytest.raises(InfeasibleParameters, match="density"):
            generate_instance("wso", 5, 2, density, seed=0)

    def test_unreachable_connectivity(self):
        # zero density never connects a wso sample, so resampling gives up
        with pytest.raises(InfeasibleParameters, match="attempts"):
            generate_instance("wso", 3, 1, 0.0, seed=0)


# The cells of the golden grid below, for each (kind, nodes): every label
# count, density and seed, in this order.
GOLDEN_CELLS = list(itertools.product((1, 3, 7), (0.0, 0.15, 0.45, 1.0), (0, 1)))

# SHA-256 over the grid cells of each (kind, nodes), each cell read as
# what ``golden_cell`` returns.  Changing the generator's random stream,
# its acceptance test or the writer's bytes moves these; the benchmark's
# committed reference values rely on the seed-0 instances too.
GOLDEN_DIGESTS = {
    ("wso", 2): "80a14ef94e6b45b21d4b7f2c944b39b93b18e050e16dbb7a78e0592e6feb6002",
    ("wso", 5): "cf8cc8592cbb1de86368a84de650e177e88e02ce0ca9a051e7470a7b6d972058",
    ("wso", 13): "f1aa89ef6dc66189e97b07a7cdfedb45138320ea5cb06f240fce12189b795352",
    ("wso", 40): "1461db3fd199d124e6c79ff0db7783151a60bb79b458f2f03550a81a18c7767f",
    ("wso", 80): "874ed49da28c51aad7616cf9475f87cdf51898edb9ae862a0b3cc8f3947cf05c",
    ("closure", 2): "d4ad122931a76f3e4b4a28b757f4d87e7d65ea2294a41006ff51b1521367d64c",
    ("closure", 5): "978f6570f1c3cd31d470461cda02b6d171bfdb2da52e5c6899408f535600126c",
    ("closure", 13): "251a3eddfdfb61078e8cd93a8562f702f13f34c2e014ee64c03ec821f64c1e75",
    ("closure", 40): "4f846c17d3d659cee723266c53fc461a5e311d690d25a59aaa8fabd35c81d28a",
    ("closure", 80): "791047183a48bf99d5b619549b7fbd4bafe3e94580669781090b5ae301610b8a",
    ("path-closure", 2): "6d1265ff3eb5e28eae0c0891e92e5935bf21e56e3f932eafa54039c1f9c3ee5c",
    ("path-closure", 5): "6965fbaa613b64e84e3aa3dd7b5a54a013fd36aee0ef803550441e0f08f11f33",
    ("path-closure", 13): "dc7c531c29c2f9821f6d128d363881e968247ede54224dc6e66f372f69902408",
    ("path-closure", 40): "6be476b6193585b719975b84c74855783b8bfaa7599756c7f98455377354131d",
    ("path-closure", 80): "efed71187dc87e5bb017ef245221ceb2bcc5825da891f9bb06e09c30cfd61d48",
}


def golden_cell(kind, nodes, labels, density, seed) -> str:
    """The canonical JSON of one instance, or the type and message of the
    InfeasibleParameters that its parameters raise."""
    try:
        return graph_to_json(generate_instance(kind, nodes, labels, density, seed))
    except InfeasibleParameters as exc:
        return f"{type(exc).__name__}: {exc}"


class TestGoldenGrid:
    @pytest.mark.parametrize("kind, nodes", GOLDEN_DIGESTS)
    def test_generator_and_writer_bytes(self, kind, nodes):
        digest = hashlib.sha256()
        for labels, density, seed in GOLDEN_CELLS:
            text = golden_cell(kind, nodes, labels, density, seed)
            digest.update(text.encode())
            # zero density connects nothing but a one-label path-closure's chain
            infeasible = density == 0.0 and (kind != "path-closure" or labels > 1)
            message = (
                f"InfeasibleParameters: no weakly connected {kind} instance with "
                f"nodes={nodes} density={density} after 500 attempts"
            )
            assert (text == message) == infeasible, (labels, density, seed)
        assert digest.hexdigest() == GOLDEN_DIGESTS[kind, nodes]

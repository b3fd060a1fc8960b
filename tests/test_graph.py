from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from shoplens.graph import (BipartiteGraph, GraphDocument, attach_embeddings,
                            build_affinity_graph, build_purchase_graph,
                            export_graphml, export_jsonl, import_jsonl,
                            similar_nodes)
from shoplens.graph import _escape
from shoplens.nmf import Factorization

from conftest import purchase_matrix


def factorization(w, h, row_ids=None, col_ids=None):
    w = np.asarray(w, dtype=float)
    h = np.asarray(h, dtype=float)
    return Factorization(w=w, h=h, objective_trace=[], converged=True, n_iter=0,
                         row_ids=row_ids, col_ids=col_ids)


class TestPurchaseGraph:
    def test_empty_matrix_has_nodes_but_no_edges(self):
        m = purchase_matrix(["a", "b"], ["x"], {})
        g = build_purchase_graph(m)
        assert g.left_ids == ["a", "b"]
        assert g.right_ids == ["x"]
        assert g.edges == []

    def test_single_entry(self):
        m = purchase_matrix(["a"], ["x"], {(0, 0): 5.0})
        g = build_purchase_graph(m)
        assert g.edges == [("a", "x", 5.0)]

    def test_edge_multiset_equals_stored_entries(self):
        rng = np.random.default_rng(0)
        entries = {(i, j): float(rng.uniform(0.5, 9)) for i in range(4)
                   for j in range(5) if rng.random() < 0.6}
        m = purchase_matrix([f"c{i}" for i in range(4)],
                            [f"s{j}" for j in range(5)], entries)
        g = build_purchase_graph(m)
        assert len(g.edges) == m.nnz
        assert g.edges == [(f"c{i}", f"s{j}", v) for (i, j), v in sorted(entries.items())]

    def test_positive_weights_enforced(self):
        with pytest.raises(ValueError, match="non-positive"):
            BipartiteGraph("customer", "item", ["a"], ["x"], [("a", "x", 0.0)])


class TestAffinityGraph:
    def test_zero_affinities_no_edges(self):
        f = factorization(np.zeros((3, 2)), np.ones((2, 4)))
        assert build_affinity_graph(f).edges == []

    def test_dense_positive_w_gives_all_edges(self):
        f = factorization(np.ones((3, 2)), np.ones((2, 4)))
        g = build_affinity_graph(f, threshold=0.0)
        assert len(g.edges) == 6
        assert g.right_ids == ["e0", "e1"]

    def test_median_threshold_count(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0, 1, size=(6, 4))
        f = factorization(w, np.ones((4, 2)))
        thr = float(np.median(w))
        g = build_affinity_graph(f, threshold=thr)
        assert len(g.edges) == int((w > thr).sum())

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_affinity_graph(factorization(np.ones((1, 1)), np.ones((1, 1))), -1.0)


class TestAttachEmbeddings:
    def test_cluster_property_on_customer_nodes_only(self):
        m = purchase_matrix(["a"], ["x"], {(0, 0): 2.0})
        f = factorization([[1.0, 2.0]], [[3.0], [4.0]], ["a"], ["x"])
        doc = attach_embeddings(build_purchase_graph(m), f, np.array([0]))
        (customer,) = [nd for nd in doc.nodes if nd["kind"] == "customer"]
        assert customer["cluster"] == 0
        assert all("cluster" not in nd for nd in doc.nodes if nd["kind"] == "item")

    def test_labels_must_cover_the_rows(self):
        m = purchase_matrix(["a"], ["x"], {(0, 0): 2.0})
        f = factorization([[1.0, 2.0]], [[3.0], [4.0]], ["a"], ["x"])
        with pytest.raises(ValueError, match="does not cover"):
            attach_embeddings(build_purchase_graph(m), f, np.array([0, 1]))

    def test_embedding_lengths_match_k(self):
        rng = np.random.default_rng(2)
        w, h = rng.uniform(1, 2, (4, 5)), rng.uniform(1, 2, (5, 3))
        m = purchase_matrix([f"c{i}" for i in range(4)], ["x", "y", "z"],
                            {(0, 0): 1.0})
        f = factorization(w, h, [f"c{i}" for i in range(4)], ["x", "y", "z"])
        doc = attach_embeddings(build_purchase_graph(m), f, np.zeros(4, dtype=int))
        for nd in doc.nodes:
            assert len(nd["embedding"]) == 5

    def test_id_mismatch_lists_offenders(self):
        m = purchase_matrix(["ghost"], ["x"], {(0, 0): 1.0})
        f = factorization([[1.0]], [[1.0]], ["a"], ["x"])
        with pytest.raises(ValueError, match="ghost"):
            attach_embeddings(build_purchase_graph(m), f, np.array([0]))


class TestEscape:
    @pytest.mark.parametrize("text", ["", "plain", 'a&b<c>d"e', '&amp;"<<>>"&',
                                      "Café & Crème <» \"ß\" ☕", "'single' & \t tab"])
    def test_matches_saxutils(self, text):
        assert _escape(text) == sax_escape(text)
        assert _escape(text, quote=True) == sax_escape(text, {'"': "&quot;"})


class TestRoundTrip:
    def make_doc(self):
        rng = np.random.default_rng(3)
        n = 6
        ids = [f"c{i}" for i in range(n)]
        w = rng.uniform(0.1, 3.0, size=(n, 3))
        h = rng.uniform(0.1, 3.0, size=(3, 2))
        f = factorization(w, h, ids, ["x", "y"])
        return attach_embeddings(build_affinity_graph(f), f, np.array([0, 0, 1, 1, -1, -1]))

    def test_jsonl_round_trip_is_byte_stable(self, tmp_path):
        doc = self.make_doc()
        n1, e1 = export_jsonl(doc, tmp_path, "g")
        doc2 = import_jsonl(n1, e1)
        out2 = tmp_path / "again"
        n2, e2 = export_jsonl(doc2, out2, "g")
        assert n1.read_bytes() == n2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()

    def test_graphml_round_trip_through_jsonl(self, tmp_path):
        doc = self.make_doc()
        gml1 = export_graphml(doc, tmp_path / "g1.graphml")
        n1, e1 = export_jsonl(doc, tmp_path, "g")
        doc2 = import_jsonl(n1, e1)
        gml2 = export_graphml(doc2, tmp_path / "g2.graphml")
        assert gml1.read_bytes() == gml2.read_bytes()

    def test_export_bytes(self, tmp_path):
        # the exact bytes of both formats, escapes and UTF-8 included
        doc = GraphDocument(
            nodes=[{"kind": "item", "id": "\u00e9&x"},
                   {"kind": "customer", "id": "c<1>", "embedding": [0.5, 1.25],
                    "cluster": 0}],
            edges=[{"_from": "customer/c<1>", "_to": "item/\u00e9&x", "weight": 2.5}])
        nodes, edges = export_jsonl(doc, tmp_path, "g")
        graphml = export_graphml(doc, tmp_path / "g.graphml")
        assert nodes.read_bytes() == (
            b'{"cluster": 0, "embedding": [0.5, 1.25], "id": "c<1>", "kind": "customer"}\n'
            b'{"id": "\\u00e9&x", "kind": "item"}\n')
        assert edges.read_bytes() == (
            b'{"_from": "customer/c<1>", "_to": "item/\\u00e9&x", "weight": 2.5}\n')
        assert graphml.read_bytes() == "\n".join([
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="kind" for="node" attr.name="kind" attr.type="string"/>',
            '  <key id="embedding" for="node" attr.name="embedding" attr.type="string"/>',
            '  <key id="cluster" for="node" attr.name="cluster" attr.type="int"/>',
            '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
            '  <graph id="G" edgedefault="undirected">',
            '    <node id="customer/c&lt;1&gt;">',
            '      <data key="kind">customer</data>',
            '      <data key="embedding">0.5,1.25</data>',
            '      <data key="cluster">0</data>',
            '    </node>',
            '    <node id="item/\u00e9&amp;x">',
            '      <data key="kind">item</data>',
            '    </node>',
            '    <edge source="customer/c&lt;1&gt;" target="item/\u00e9&amp;x">',
            '      <data key="weight">2.5</data>',
            '    </edge>',
            '  </graph>',
            '</graphml>', '']).encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g.graphml", "g_edges.jsonl", "g_nodes.jsonl"]

    @pytest.mark.parametrize("weight", [float("nan"), np.float64("inf")])
    def test_non_finite_edge_weight_raises_and_leaves_no_edge_file(self, tmp_path, weight):
        doc = GraphDocument(nodes=[{"kind": "item", "id": "x"}],
                            edges=[{"_from": "customer/c", "_to": "item/x", "weight": weight}])
        with pytest.raises(ValueError):
            export_jsonl(doc, tmp_path, "g")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g_nodes.jsonl"]

    def test_edges_reference_kind_qualified_ids(self):
        doc = self.make_doc()
        for ed in doc.edges:
            assert ed["_from"].startswith("customer/")
            assert ed["_to"].startswith("element/")


class TestSimilarity:
    def doc_with_embeddings(self, vectors):
        nodes = [{"id": f"n{i}", "kind": "customer",
                  "embedding": [float(v) for v in vec]}
                 for i, vec in enumerate(vectors)]
        from shoplens.graph import GraphDocument
        return GraphDocument(nodes=nodes, edges=[])

    def test_duplicate_embedding_ranks_first(self):
        doc = self.doc_with_embeddings([[1, 2, 3], [1, 2, 3], [3, -1, 0]])
        (top, score), *_ = similar_nodes(doc, "n0", 2)
        assert top == "n1"
        assert score == pytest.approx(1.0)

    def test_orthogonal_embeddings_score_zero(self):
        doc = self.doc_with_embeddings([[1, 0], [0, 1]])
        ((_, score),) = similar_nodes(doc, "n0", 1)
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_cosine_oracle(self):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((10, 4))
        doc = self.doc_with_embeddings(vectors)
        got = similar_nodes(doc, "n3", 9)
        q = vectors[3]
        expected = sorted(
            ((f"n{i}", float(q @ v / (np.linalg.norm(q) * np.linalg.norm(v))))
             for i, v in enumerate(vectors) if i != 3),
            key=lambda t: (-t[1], t[0]))
        assert [nid for nid, _ in got] == [nid for nid, _ in expected]
        for (_, s1), (_, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2, abs=1e-12)

    def test_score_symmetry(self):
        rng = np.random.default_rng(5)
        doc = self.doc_with_embeddings(rng.standard_normal((6, 3)))
        ab = dict(similar_nodes(doc, "n1", 5))["n4"]
        ba = dict(similar_nodes(doc, "n4", 5))["n1"]
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_zero_vector_query_rejected(self):
        doc = self.doc_with_embeddings([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="zero embedding"):
            similar_nodes(doc, "n0", 1)

    def test_unknown_node(self):
        doc = self.doc_with_embeddings([[1, 0]])
        with pytest.raises(ValueError, match="not found"):
            similar_nodes(doc, "ghost", 1)

    def test_different_kind_excluded(self):
        from shoplens.graph import GraphDocument
        doc = GraphDocument(nodes=[
            {"id": "a", "kind": "customer", "embedding": [1.0, 0.0]},
            {"id": "b", "kind": "item", "embedding": [1.0, 0.0]},
            {"id": "c", "kind": "customer", "embedding": [0.5, 0.5]},
        ], edges=[])
        got = similar_nodes(doc, "a", 5)
        assert [nid for nid, _ in got] == ["c"]

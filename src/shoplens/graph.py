"""Bipartite result graphs with embeddings, file export, and similarity
queries.

Two graphs come out of the pipeline: customer<->item (spend on the selected
inventory) and customer<->dictionary-element (affinity weights). Customer
nodes carry their affinity row and cluster id, item nodes carry their
dictionary column. Everything exports to line-delimited node/edge documents
(with ``_from``/``_to`` references ready for bulk import) plus a GraphML
file; exports are canonically ordered and formatted, so
export -> import -> export is byte-stable.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._fmt import dump_jsonl, fmt_float, write_text
from .ingest import PurchaseMatrix
from .nmf import Factorization

CUSTOMER = "customer"
ITEM = "item"
ELEMENT = "element"


@dataclass
class BipartiteGraph:
    left_kind: str
    right_kind: str
    left_ids: list[str]
    right_ids: list[str]
    edges: list[tuple[str, str, float]]  # (left id, right id, weight > 0)

    def __post_init__(self):
        for a, b, w in self.edges:
            if w <= 0:
                raise ValueError(f"edge ({a}, {b}) has non-positive weight {w}")


@dataclass
class GraphDocument:
    nodes: list[dict] = field(default_factory=list)
    edges: list[dict] = field(default_factory=list)


def build_purchase_graph(p_prime: PurchaseMatrix) -> BipartiteGraph:
    """One edge per stored matrix entry, weighted by spend, row-major."""
    return BipartiteGraph(CUSTOMER, ITEM, list(p_prime.row_ids),
                          list(p_prime.col_ids), list(p_prime.triplets()))


def _factor_ids(f: Factorization) -> tuple[list[str], list[str]]:
    n, k = f.w.shape
    rows = f.row_ids if f.row_ids is not None else [str(i) for i in range(n)]
    cols = f.col_ids if f.col_ids is not None else [str(j) for j in range(f.h.shape[1])]
    return rows, cols


def build_affinity_graph(f: Factorization, threshold: float = 0.0) -> BipartiteGraph:
    """Customer-to-dictionary-element edges for every affinity above the
    threshold."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    rows, _ = _factor_ids(f)
    k = f.w.shape[1]
    element_ids = [f"e{t}" for t in range(k)]
    edges = []
    for i, rid in enumerate(rows):
        for t in range(k):
            if f.w[i, t] > threshold:
                edges.append((rid, element_ids[t], float(f.w[i, t])))
    return BipartiteGraph(CUSTOMER, ELEMENT, list(rows), element_ids, edges)


def attach_embeddings(g: BipartiteGraph, f: Factorization,
                      labels: np.ndarray) -> GraphDocument:
    """Node/edge documents with embeddings and cluster ids attached.

    Customer nodes get their affinity-matrix row and the cluster id that
    ``labels`` holds for that row; item nodes get their dictionary column;
    dictionary-element nodes carry no embedding. Ids in the graph must exist
    in the factorization.
    """
    rows, cols = _factor_ids(f)
    row_index = {r: i for i, r in enumerate(rows)}
    col_index = {c: j for j, c in enumerate(cols)}

    offenders = [cid for cid in g.left_ids if cid not in row_index]
    if g.right_kind == ITEM:
        offenders += [c for c in g.right_ids if c not in col_index]
    if offenders:
        raise ValueError(f"graph ids missing from the factorization: {offenders}")
    if len(labels) != len(rows):
        raise ValueError("cluster labeling does not cover the factorization rows")

    nodes = [{"id": cid, "kind": g.left_kind,
              "embedding": [float(v) for v in f.w[row_index[cid]]],
              "cluster": int(labels[row_index[cid]])} for cid in g.left_ids]
    for rid in g.right_ids:
        node = {"id": rid, "kind": g.right_kind}
        if g.right_kind == ITEM:
            node["embedding"] = [float(v) for v in f.h[:, col_index[rid]]]
        nodes.append(node)

    edges = [{"_from": f"{g.left_kind}/{a}", "_to": f"{g.right_kind}/{b}",
              "weight": float(w)} for a, b, w in g.edges]
    nodes.sort(key=lambda d: (d["kind"], d["id"]))
    edges.sort(key=lambda d: (d["_from"], d["_to"]))
    return GraphDocument(nodes=nodes, edges=edges)


def similar_nodes(doc: GraphDocument, node_id: str, top_n: int,
                  ) -> list[tuple[str, float]]:
    """Most-similar same-kind nodes by cosine similarity of embeddings.

    The query node is excluded; equal scores order by node id.
    """
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    matches = [nd for nd in doc.nodes if nd["id"] == node_id]
    if not matches:
        raise ValueError(f"node {node_id!r} not found")
    query = matches[0]
    if "embedding" not in query:
        raise ValueError(f"node {node_id!r} has no embedding")
    q = np.asarray(query["embedding"], dtype=float)
    qn = np.linalg.norm(q)
    if qn == 0:
        raise ValueError(f"node {node_id!r} has a zero embedding")

    scored = []
    for nd in doc.nodes:
        if nd["kind"] != query["kind"] or nd["id"] == node_id or "embedding" not in nd:
            continue
        v = np.asarray(nd["embedding"], dtype=float)
        vn = np.linalg.norm(v)
        score = 0.0 if vn == 0 else float(q @ v / (qn * vn))
        scored.append((nd["id"], score))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:top_n]


# ---------------------------------------------------------------- export --

def export_jsonl(doc: GraphDocument, directory: str | Path, prefix: str) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes_path = directory / f"{prefix}_nodes.jsonl"
    edges_path = directory / f"{prefix}_edges.jsonl"
    nodes = sorted(doc.nodes, key=lambda d: (d["kind"], d["id"]))
    edges = sorted(doc.edges, key=lambda d: (d["_from"], d["_to"]))
    dump_jsonl(nodes_path, nodes)
    dump_jsonl(edges_path, edges)
    return nodes_path, edges_path


def import_jsonl(nodes_path: str | Path, edges_path: str | Path) -> GraphDocument:
    def load(path):
        with open(path, "r", encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]
    return GraphDocument(nodes=load(nodes_path), edges=load(edges_path))


def _escape(text: str, quote: bool = False) -> str:
    """XML character data (and, with ``quote``, a double-quoted attribute
    value); the same bytes as ``xml.sax.saxutils.escape``, which would pull
    ``urllib`` and ``http`` into every CLI start."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.replace('"', "&quot;") if quote else text


def export_graphml(doc: GraphDocument, path: str | Path) -> Path:
    """GraphML with embeddings as comma-joined attribute strings."""
    path = Path(path)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="kind" for="node" attr.name="kind" attr.type="string"/>',
        '  <key id="embedding" for="node" attr.name="embedding" attr.type="string"/>',
        '  <key id="cluster" for="node" attr.name="cluster" attr.type="int"/>',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    refs: dict[str, str] = {}  # each node reference, escaped once

    def ref(text: str) -> str:
        if text not in refs:
            refs[text] = _escape(text, quote=True)
        return refs[text]

    for nd in sorted(doc.nodes, key=lambda d: (d["kind"], d["id"])):
        node_ref = ref(f"{nd['kind']}/{nd['id']}")
        lines.append(f'    <node id="{node_ref}">')
        lines.append(f'      <data key="kind">{_escape(nd["kind"])}</data>')
        if "embedding" in nd:
            emb = ",".join(fmt_float(v) for v in nd["embedding"])
            lines.append(f'      <data key="embedding">{emb}</data>')
        if "cluster" in nd:
            lines.append(f'      <data key="cluster">{nd["cluster"]}</data>')
        lines.append('    </node>')
    for ed in sorted(doc.edges, key=lambda d: (d["_from"], d["_to"])):
        lines.append(f'    <edge source="{ref(ed["_from"])}" target="{ref(ed["_to"])}">')
        lines.append(f'      <data key="weight">{fmt_float(ed["weight"])}</data>')
        lines.append('    </edge>')
    lines += ['  </graph>', '</graphml>']
    write_text(path, "\n".join(lines) + "\n")
    return path

"""Query graphs and the rule-based template interpretation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .parser import _PLACEHOLDER_RE, BoolOp, Condition, LogicExpr, SqlQuery, _escape

SUPER_TOKEN = "<super>"


@dataclass(frozen=True)
class GraphNode:
    id: int
    kind: str
    text: tuple[str, ...]

    def __post_init__(self):
        if not self.text:
            raise ValueError("graph node text must be non-empty")


@dataclass
class QueryGraph:
    """Directed labeled graph over typed nodes with token-list texts.

    Node ids are dense 0..n-1; the edge list carries (src, dst) pairs
    without self-loops or duplicates.
    """

    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """(forward, backward) neighbor lists: nodes v directs to, nodes
        directing to v."""
        fwd: list[list[int]] = [[] for _ in self.nodes]
        bwd: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.edges:
            fwd[src].append(dst)
            bwd[dst].append(src)
        return fwd, bwd


class _GraphBuilder:
    def __init__(self):
        self.nodes: list[GraphNode] = []
        self.edges: list[tuple[int, int]] = []
        self._edge_set: set[tuple[int, int]] = set()
        self._constraints: dict[tuple[str, ...], int] = {}

    def node(self, kind: str, text: tuple[str, ...]) -> int:
        nid = len(self.nodes)
        self.nodes.append(GraphNode(nid, kind, text))
        return nid

    def edge(self, src: int, dst: int) -> None:
        if src == dst:
            return
        if (src, dst) not in self._edge_set:
            self._edge_set.add((src, dst))
            self.edges.append((src, dst))

    def constraint(self, text: tuple[str, ...]) -> int:
        # Constraint nodes with identical text are shared between conditions.
        if text not in self._constraints:
            self._constraints[text] = self.node("constraint", text)
        return self._constraints[text]


def _column_tokens(name: str) -> tuple[str, ...]:
    """The column name split on single spaces, so joining the tokens with
    single spaces gives the name back."""
    return tuple(name.split(" "))


def _constraint_tokens(cond: Condition) -> tuple[str, ...]:
    """The comparator, then the value split on single spaces: a literal escaped
    as the renderer escapes it, and quoted when spelled like a placeholder."""
    text = cond.value.text
    if cond.value.kind == "literal":
        text = _escape(text, "'")
        if _PLACEHOLDER_RE.match(text):
            text = f"'{text}'"
    return (cond.comparator, *text.split(" "))


def build_graph(query: SqlQuery) -> QueryGraph:
    """Directed graph of a query.

    Edges: select->selected-column (via an aggregation node when present:
    select->aggregation->column); each logical operator node points at the
    select node, at each child operator node and at the column node of
    every condition it combines; condition columns point at their (merged)
    constraint nodes.  A lone condition without a logical operator hangs
    its column directly under the select node.
    """
    b = _GraphBuilder()
    select_id = b.node("select", ("select",))
    if query.aggregation is not None:
        agg_id = b.node("aggregation", (query.aggregation,))
        b.edge(select_id, agg_id)
        column_parent = agg_id
    else:
        column_parent = select_id
    for name in query.select_columns:
        col_id = b.node("column", _column_tokens(name))
        b.edge(column_parent, col_id)

    def add_condition(cond: Condition, parent: int) -> None:
        col_id = b.node("column", _column_tokens(cond.column))
        b.edge(parent, col_id)
        b.edge(col_id, b.constraint(_constraint_tokens(cond)))

    def add_operator(expr: BoolOp) -> int:
        op_id = b.node("operator", (expr.op,))
        b.edge(op_id, select_id)
        for child in expr.children:
            if isinstance(child, Condition):
                add_condition(child, op_id)
            else:
                b.edge(op_id, add_operator(child))
        return op_id

    if isinstance(query.where, Condition):
        add_condition(query.where, select_id)
    elif isinstance(query.where, BoolOp):
        add_operator(query.where)

    return QueryGraph(b.nodes, b.edges)


def to_undirected(graph: QueryGraph) -> QueryGraph:
    """Mirror every edge (deduplicated)."""
    edges = list(graph.edges)
    seen = set(edges)
    for src, dst in graph.edges:
        if (dst, src) not in seen:
            seen.add((dst, src))
            edges.append((dst, src))
    return QueryGraph(list(graph.nodes), edges)


def add_super_node(graph: QueryGraph) -> QueryGraph:
    """Attach a super node receiving an edge from every other node."""
    if any(n.kind == "super" for n in graph.nodes):
        raise ValueError("graph already contains a super node")
    nodes = list(graph.nodes)
    super_id = len(nodes)
    nodes.append(GraphNode(super_id, "super", (SUPER_TOKEN,)))
    edges = list(graph.edges) + [(n.id, super_id) for n in graph.nodes]
    return QueryGraph(nodes, edges)


def disjoint_union(graphs: list[QueryGraph]) -> QueryGraph:
    """One graph holding every input graph, in order, with no edges
    between them: graph i's node j becomes node offset_i + j."""
    nodes: list[GraphNode] = []
    edges: list[tuple[int, int]] = []
    for graph in graphs:
        offset = len(nodes)
        nodes.extend(GraphNode(offset + n.id, n.kind, n.text) for n in graph.nodes)
        edges.extend((offset + src, offset + dst) for src, dst in graph.edges)
    return QueryGraph(nodes, edges)


_COMPARATOR_WORDS = {
    ">": "more than",
    "<": "less than",
    ">=": "more than or equal to",
    "<=": "less than or equal to",
    "=": "equals",
    "!=": "not equals",
}

_AGGREGATION_WORDS = {
    "max": "maximum",
    "min": "minimum",
    "sum": "total",
    "avg": "average",
}


def template_interpret(query: SqlQuery) -> str:
    """Rule-based English rendering of a query."""

    def expr_words(expr: LogicExpr) -> list[str]:
        if isinstance(expr, Condition):
            words = expr.column.split()
            words.extend(_COMPARATOR_WORDS[expr.comparator].split())
            words.extend(expr.value.text.split())
            return words
        if expr.op == "not":
            return ["not", *expr_words(expr.children[0])]
        joined: list[str] = []
        for i, child in enumerate(expr.children):
            if i:
                joined.append(expr.op)
            joined.extend(expr_words(child))
        return joined

    words: list[str] = []
    if query.aggregation == "count":
        words.extend(["how", "many"])
    else:
        words.append("which")
        if query.aggregation is not None:
            words.append(_AGGREGATION_WORDS[query.aggregation])
    for name in query.select_columns:
        words.extend(name.split())
    if query.where is not None:
        words.append("where")
        words.extend(expr_words(query.where))
    return " ".join(words)


def to_json_dict(graph: QueryGraph) -> dict:
    return {
        "nodes": [
            {"id": n.id, "kind": n.kind, "text": list(n.text)} for n in graph.nodes
        ],
        "edges": [[src, dst] for src, dst in graph.edges],
    }


def to_dot(graph: QueryGraph) -> str:
    lines = ["digraph query {"]
    for n in graph.nodes:
        label = f"{n.kind}: {' '.join(n.text)}".replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{n.id} [label="{label}"];')
    for src, dst in graph.edges:
        lines.append(f"  n{src} -> n{dst};")
    lines.append("}")
    return "\n".join(lines)

import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from test_parser import _logic, _queries

from sql2text.graphs import (
    QueryGraph,
    add_super_node,
    build_graph,
    template_interpret,
    to_dot,
    to_json_dict,
    to_undirected,
)
from sql2text.parser import Condition, SqlQuery, parse

EXAMPLE_QUERY = (
    "SELECT company WHERE assets > val0 AND sales > val0 "
    "AND industry <= val1 AND profits = val2"
)

GOLDEN_NODES = Counter(
    {
        ("select", ("select",)): 1,
        ("column", ("company",)): 1,
        ("operator", ("and",)): 1,
        ("column", ("assets",)): 1,
        ("column", ("sales",)): 1,
        ("column", ("industry",)): 1,
        ("column", ("profits",)): 1,
        ("constraint", (">", "val_0")): 1,
        ("constraint", ("<=", "val_1")): 1,
        ("constraint", ("=", "val_2")): 1,
    }
)

GOLDEN_EDGES = Counter(
    {
        (("select", ("select",)), ("column", ("company",))): 1,
        (("operator", ("and",)), ("select", ("select",))): 1,
        (("operator", ("and",)), ("column", ("assets",))): 1,
        (("operator", ("and",)), ("column", ("sales",))): 1,
        (("operator", ("and",)), ("column", ("industry",))): 1,
        (("operator", ("and",)), ("column", ("profits",))): 1,
        (("column", ("assets",)), ("constraint", (">", "val_0"))): 1,
        (("column", ("sales",)), ("constraint", (">", "val_0"))): 1,
        (("column", ("industry",)), ("constraint", ("<=", "val_1"))): 1,
        (("column", ("profits",)), ("constraint", ("=", "val_2"))): 1,
    }
)


def node_key(graph, node_id):
    node = graph.nodes[node_id]
    return (node.kind, node.text)


def edge_multiset(graph):
    return Counter((node_key(graph, s), node_key(graph, d)) for s, d in graph.edges)


def is_weakly_connected(graph):
    if not graph.nodes:
        return True
    adj = {n.id: set() for n in graph.nodes}
    for s, d in graph.edges:
        adj[s].add(d)
        adj[d].add(s)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == len(graph.nodes)


def is_acyclic(graph):
    indeg = {n.id: 0 for n in graph.nodes}
    for _, d in graph.edges:
        indeg[d] += 1
    fwd, _ = graph.adjacency()
    queue = [v for v, deg in indeg.items() if deg == 0]
    visited = 0
    while queue:
        v = queue.pop()
        visited += 1
        for u in fwd[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return visited == len(graph.nodes)


class TestBuildGraph:
    def test_golden_example(self):
        g = build_graph(parse(EXAMPLE_QUERY))
        assert len(g.nodes) == 10
        assert len(g.edges) == 10
        assert Counter((n.kind, n.text) for n in g.nodes) == GOLDEN_NODES
        assert edge_multiset(g) == GOLDEN_EDGES

    def test_merged_constraint_in_degree_two(self):
        g = build_graph(parse(EXAMPLE_QUERY))
        (cid,) = [n.id for n in g.nodes if n.text == (">", "val_0")]
        assert sum(1 for _, d in g.edges if d == cid) == 2

    def test_deterministic_construction(self):
        q = parse(EXAMPLE_QUERY)
        first = build_graph(q)
        for _ in range(10):
            g = build_graph(q)
            assert [(n.id, n.kind, n.text) for n in g.nodes] == [
                (n.id, n.kind, n.text) for n in first.nodes
            ]
            assert g.edges == first.edges

    def test_minimal_query(self):
        g = build_graph(parse("SELECT name"))
        assert len(g.nodes) == 2
        assert g.edges == [(0, 1)]

    def test_aggregation_node(self):
        g = build_graph(
            parse("SELECT COUNT Player WHERE starter = val0 AND touchdowns = val1 AND position = val2")
        )
        agg = next(n for n in g.nodes if n.kind == "aggregation")
        assert agg.text == ("count",)
        select = next(n for n in g.nodes if n.kind == "select")
        player = [n for n in g.nodes if n.text == ("player",)][0]
        assert (select.id, agg.id) in g.edges
        assert (agg.id, player.id) in g.edges

    def test_single_condition_attaches_under_select(self):
        g = build_graph(parse("SELECT a WHERE b > val0"))
        assert all(n.kind != "operator" for n in g.nodes)
        select = next(n for n in g.nodes if n.kind == "select")
        col_b = [n for n in g.nodes if n.text == ("b",)][0]
        assert (select.id, col_b.id) in g.edges

    def test_every_operator_points_at_select(self):
        g = build_graph(parse("SELECT a WHERE NOT b = val0 AND (c = val1 OR d = val2)"))
        select = next(n for n in g.nodes if n.kind == "select")
        operators = [n for n in g.nodes if n.kind == "operator"]
        assert sorted(n.text[0] for n in operators) == ["and", "not", "or"]
        for op in operators:
            assert (op.id, select.id) in g.edges

    def test_condition_columns_have_one_constraint_edge(self):
        g = build_graph(parse(EXAMPLE_QUERY))
        fwd, _ = g.adjacency()
        for node in g.nodes:
            if node.kind == "column" and node.text != ("company",):
                out = fwd[node.id]
                assert len(out) == 1
                assert g.nodes[out[0]].kind == "constraint"

    def test_structural_invariants(self):
        for sql in (
            EXAMPLE_QUERY,
            "SELECT name",
            "SELECT a, b WHERE c = val0",
            "SELECT COUNT x WHERE y > val0 OR z < val1",
            "SELECT a WHERE NOT b = val0",
        ):
            g = build_graph(parse(sql))
            assert [n.id for n in g.nodes] == list(range(len(g.nodes)))
            assert len(set(g.edges)) == len(g.edges)
            assert all(s != d for s, d in g.edges)
            assert sum(1 for n in g.nodes if n.kind == "select") == 1
            assert is_weakly_connected(g)
            assert is_acyclic(g)
            assert all(t == t.lower() for n in g.nodes for t in n.text)

    def test_duplicate_column_conditions_get_own_nodes(self):
        g = build_graph(parse("SELECT a WHERE b > val0 AND b < val1"))
        assert sum(1 for n in g.nodes if n.text == ("b",)) == 2


# Two logically different nested queries that shared one graph while
# operators were not linked to their child operators.
NESTED_PAIR = (
    "SELECT a WHERE NOT (b > val0 AND c > val1) OR NOT (d > val2 AND e > val3)",
    "SELECT a WHERE NOT ((b > val0 AND c > val1) OR NOT (d > val2 AND e > val3))",
)


def unfold(graph):
    """Canonical unfolding of a query graph from its select node:
    (aggregation, sorted selected columns, WHERE tree), with each
    operator's children sorted.  Only node texts and edges are read, so
    isomorphic graphs unfold alike."""
    fwd, bwd = graph.adjacency()
    kind = [n.kind for n in graph.nodes]
    text = [n.text for n in graph.nodes]
    (select,) = [v for v, k in enumerate(kind) if k == "select"]

    def expr(v):
        if kind[v] == "column":
            (constraint,) = fwd[v]
            return (" ".join(text[v]), constraint_form(text[constraint]))
        return (text[v], tuple(sorted((expr(u) for u in fwd[v] if u != select), key=repr)))

    aggs = [u for u in fwd[select] if kind[u] == "aggregation"]
    column_parent = aggs[0] if aggs else select
    columns = sorted(" ".join(text[u]) for u in fwd[column_parent] if kind[u] == "column" and not fwd[u])
    roots = [
        v for v in bwd[select]
        if kind[v] == "operator" and not any(kind[p] == "operator" for p in bwd[v])
    ]
    lone = [u for u in fwd[select] if kind[u] == "column" and fwd[u]]
    assert len(roots) + len(lone) <= 1
    where = [expr(v) for v in roots + lone]
    return (text[aggs[0]] if aggs else None, tuple(columns), where[0] if where else None)


def constraint_form(text):
    """(comparator, value kind, value text) read back from a constraint
    node's text: a placeholder is a bare val_N; a literal is split on single
    spaces, backslash-escaped, and quoted when spelled like a placeholder."""
    comparator, *words = text
    value = " ".join(words)
    if re.fullmatch(r"val_\d+", value):
        return (comparator, "placeholder", value)
    if value.startswith("'"):
        value = value[1:-1]
    return (comparator, "literal", re.sub(r"\\(.)", r"\1", value, flags=re.DOTALL))


def canonical(query: SqlQuery):
    """The same form computed from the AST."""

    def expr(e):
        if isinstance(e, Condition):
            return (e.column, (e.comparator, e.value.kind, e.value.text))
        return ((e.op,), tuple(sorted((expr(c) for c in e.children), key=repr)))

    return (
        (query.aggregation,) if query.aggregation else None,
        tuple(sorted(query.select_columns)),
        expr(query.where) if query.where is not None else None,
    )


class TestNestedLogic:
    def test_roadmap_pair_gives_different_graphs(self):
        first, second = (build_graph(parse(sql)) for sql in NESTED_PAIR)
        assert edge_multiset(first) != edge_multiset(second)
        assert unfold(first) != unfold(second)

    def test_every_operator_has_its_children(self):
        for sql in NESTED_PAIR:
            g = build_graph(parse(sql))
            fwd, _ = g.adjacency()
            select = next(n for n in g.nodes if n.kind == "select")
            for node in g.nodes:
                if node.kind == "operator":
                    children = [u for u in fwd[node.id] if u != select.id]
                    assert len(children) == (1 if node.text == ("not",) else 2)

    def test_literal_spelled_like_placeholder_gets_its_own_graph(self):
        literal = build_graph(parse("SELECT a WHERE b = 'val_0'"))
        placeholder = build_graph(parse("SELECT a WHERE b = val_0"))
        assert literal.nodes[-1].text == ("=", "'val_0'")
        assert placeholder.nodes[-1].text == ("=", "val_0")
        assert literal != placeholder

    @pytest.mark.parametrize(
        "first,second",
        [
            ("SELECT a WHERE b = 'new  york'", "SELECT a WHERE b = 'new york'"),
            ("SELECT a WHERE b = '\\'val_0\\''", "SELECT a WHERE b = 'val_0'"),
            ("SELECT a WHERE b = '  '", "SELECT a WHERE b = ''"),
            ('SELECT a WHERE b = "val_0\n"', "SELECT a WHERE b = val_0"),
        ],
    )
    def test_distinct_literals_get_distinct_constraint_nodes(self, first, second):
        assert parse(first) != parse(second)
        texts = [[n.text for n in build_graph(parse(sql)).nodes] for sql in (first, second)]
        assert texts[0] != texts[1]

    @pytest.mark.parametrize(
        "first,second",
        [
            ('SELECT "x  y"', 'SELECT "x y"'),
            ('SELECT a WHERE "b  c" = 1', 'SELECT a WHERE "b c" = 1'),
        ],
    )
    def test_distinct_column_names_get_distinct_column_nodes(self, first, second):
        assert parse(first) != parse(second)
        texts = [[n.text for n in build_graph(parse(sql)).nodes] for sql in (first, second)]
        assert texts[0] != texts[1]

    @settings(deadline=None, max_examples=300)
    @given(_queries)
    def test_graph_determines_query_up_to_child_order(self, query):
        assert unfold(build_graph(query)) == canonical(query)

    @settings(deadline=None, max_examples=300)
    @given(_logic, _logic)
    def test_distinct_conditions_give_distinct_graphs(self, first, second):
        assume(canonical(SqlQuery(None, ("a",), first)) != canonical(SqlQuery(None, ("a",), second)))
        g1 = build_graph(SqlQuery(None, ("a",), first))
        g2 = build_graph(SqlQuery(None, ("a",), second))
        assert unfold(g1) != unfold(g2)


class TestUndirected:
    def test_two_node_graph(self):
        g = to_undirected(build_graph(parse("SELECT name")))
        assert sorted(g.edges) == [(0, 1), (1, 0)]

    def test_example_graph_doubles_edges(self):
        g = to_undirected(build_graph(parse(EXAMPLE_QUERY)))
        assert len(g.edges) == 20

    def test_idempotent(self):
        g = to_undirected(build_graph(parse(EXAMPLE_QUERY)))
        again = to_undirected(g)
        assert sorted(again.edges) == sorted(g.edges)


class TestSuperNode:
    def test_augmentation(self):
        g = add_super_node(build_graph(parse("SELECT name")))
        assert g.nodes[-1].kind == "super"
        _, bwd = g.adjacency()
        assert sorted(bwd[g.nodes[-1].id]) == [0, 1]

    def test_single_node_backward_neighborhood(self):
        g = QueryGraph(nodes=[build_graph(parse("SELECT a")).nodes[0]], edges=[])
        augmented = add_super_node(g)
        _, bwd = augmented.adjacency()
        assert bwd[1] == [0]

    def test_double_augmentation_rejected(self):
        g = add_super_node(build_graph(parse("SELECT name")))
        with pytest.raises(ValueError):
            add_super_node(g)


class TestTemplate:
    def test_example_sentence_verbatim(self):
        assert template_interpret(parse(EXAMPLE_QUERY)) == (
            "which company where assets more than val_0 and sales more than val_0 "
            "and industry less than or equal to val_1 and profits equals val_2"
        )

    def test_minimal(self):
        assert template_interpret(parse("SELECT name")) == "which name"

    def test_count_query(self):
        assert template_interpret(parse("SELECT COUNT player WHERE pos = val0")) == (
            "how many player where pos equals val_0"
        )

    @pytest.mark.parametrize(
        "cmp,phrase",
        [(">", "more than"), ("<", "less than"), (">=", "more than or equal to"),
         ("<=", "less than or equal to"), ("=", "equals"), ("!=", "not equals")],
    )
    def test_comparator_words(self, cmp, phrase):
        out = template_interpret(parse(f"SELECT a WHERE b {cmp} val0"))
        assert out == f"which a where b {phrase} val_0"

    def test_column_names_read_as_words(self):
        query = parse('SELECT "x  y" WHERE "b\tc" = 1')
        assert template_interpret(query) == "which x y where b c equals 1"

    def test_logic_words(self):
        out = template_interpret(parse("SELECT a WHERE b = val0 OR NOT c = val1"))
        assert out == "which a where b equals val_0 or not c equals val_1"


class TestExports:
    def test_json_form_field_names(self):
        data = to_json_dict(build_graph(parse("SELECT name")))
        assert set(data) == {"nodes", "edges"}
        assert data["nodes"][0] == {"id": 0, "kind": "select", "text": ["select"]}
        assert data["edges"] == [[0, 1]]

    def test_dot_output_shape(self):
        dot = to_dot(build_graph(parse(EXAMPLE_QUERY)))
        assert dot.startswith("digraph ")
        assert dot.count("{") == dot.count("}") == 1
        body = dot.splitlines()[1:-1]
        node_re = re.compile(r'^  n\d+ \[label="[^"]*"\];$')
        edge_re = re.compile(r"^  n\d+ -> n\d+;$")
        for line in body:
            assert node_re.match(line) or edge_re.match(line), line
        assert sum(1 for line in body if edge_re.match(line)) == 10

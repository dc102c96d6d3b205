"""Graph walks that must not depend on the length of a path, and strength
copies of graphs that cannot compile a plan."""

import random

import pytest

from qbaglab.cli import main
from qbaglab.errors import CycleError, UnknownArgumentError
from qbaglab.graph import (
    Qbag,
    _find_cycle,
    dump_graph,
    qbag,
    set_initial_strength,
    validate,
)
from qbaglab.semantics import evaluate

N = 5000
IDS = [f"x{i:04d}" for i in range(N)]
CHAIN = list(zip(IDS, IDS[1:]))  # x0000 supports x0001, and so on: one deep walk


def recursive_find_cycle(g):
    """The recursive depth-first finder that `_find_cycle` replaced."""
    succ = {a: [] for a in g.arguments}
    for x, y in sorted(g.edges()):
        if x in succ and y in g.arguments:
            succ[x].append(y)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {a: WHITE for a in g.arguments}
    stack = []

    def visit(node):
        color[node] = GREY
        stack.append(node)
        for nxt in succ[node]:
            if color[nxt] == GREY:
                return stack[stack.index(nxt):]
            if color[nxt] == WHITE:
                cyc = visit(nxt)
                if cyc is not None:
                    return cyc
        color[node] = BLACK
        stack.pop()
        return None

    for a in sorted(g.arguments):
        if color[a] == WHITE:
            cyc = visit(a)
            if cyc is not None:
                return cyc
    return None


def test_a_long_chain_validates_and_evaluates_from_the_cli(tmp_path, capsys):
    g = qbag({a: 0.5 for a in IDS}, supports=CHAIN)
    assert validate(g).ok
    path = tmp_path / "chain.json"
    dump_graph(g, path)
    assert main(["eval", str(path)]) == 0
    assert "x4999: 0.5 -> " in capsys.readouterr().out


def test_a_long_cycle_raises_cycle_error_naming_it():
    g = qbag({a: 0.5 for a in IDS}, supports=CHAIN + [(IDS[-1], IDS[0])])
    with pytest.raises(CycleError) as info:
        evaluate(g, "QE")
    assert sorted(info.value.cycle) == IDS
    assert [v.rule for v in validate(g).violations] == ["cycle"]


def test_find_cycle_matches_the_recursive_finder():
    rng = random.Random(20)
    names = "abcdefghi"
    cycles = 0
    for _ in range(3000):
        args = names[:rng.randint(1, 9)]
        ends = args + "z"  # z is no argument: a dangling edge
        edges = {(rng.choice(ends), rng.choice(args)) for _ in range(rng.randint(0, 12))}
        edges |= {(x, x) for x in args if rng.random() < 0.05}
        split = rng.randint(0, len(edges))
        edges = sorted(edges)
        g = Qbag(frozenset(args), frozenset(edges[:split]), frozenset(edges[split:]),
                 {a: 0.5 for a in args})
        want = recursive_find_cycle(g)
        assert _find_cycle(g) == want
        cycles += want is not None
    assert 0 < cycles < 3000


@pytest.mark.parametrize("error, g", [
    (CycleError, Qbag(frozenset("ab"), frozenset({("a", "b")}), frozenset({("b", "a")}),
                      {"a": 0.5, "b": 0.5})),
    (UnknownArgumentError, Qbag(frozenset("ab"), frozenset({("z", "a")}),
                                frozenset({("b", "a")}), {"a": 0.5, "b": 0.5})),
], ids=["cycle", "dangling"])
def test_a_strength_copy_of_an_invalid_graph_raises_when_evaluated(error, g):
    copy = set_initial_strength(g, "a", 0.2)  # made, as a restrict child is
    assert copy.initial_strength == {"a": 0.2, "b": 0.5}
    with pytest.raises(error):
        evaluate(copy, "QE")

"""Bases whose items fall into parts that share no constant: each part is
searched on its own and the answers are the ANDs of the parts' answers."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partseq import (
    World,
    enumerate_worlds,
    extensions,
    forced_inconsistency,
    parse_kb,
    sequences,
    stable_expansions,
)
from partseq.autoepistemic import DEFAULT_GUESS_CAP
from partseq.logic import TruthTable
from genkit import (
    brute_force_ael_last_classes,
    brute_force_default_last_classes,
    disjoint_union,
    random_default_theory,
    random_premises,
    renamed,
)

KINDS = {
    "default": (random_default_theory, extensions, brute_force_default_last_classes),
    "ael": (random_premises, stable_expansions, brute_force_ael_last_classes),
}


def labels(base):
    """The item labels of each part of ``base``."""
    return [[label for _, _, (label, _, _) in guarded] for _, guarded, _ in base.parts]


def projected(worlds, vocab):
    """``worlds`` with each world cut down to the constants of ``vocab``."""
    names = frozenset(vocab.names)
    return frozenset(World(vocab, w.true_names & names) for w in worlds)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_composed_bases_answer_as_every_guess_does(kind, seed):
    # 1-3 renamed bases side by side, their constants shuffled: the answer
    # is what guessing every belief vector of the whole base finds, in
    # order (the consistent points, for premises), and each answer cut
    # down to one base is one of that base's own answers
    make, answer, oracle = KINDS[kind]
    rng = random.Random(seed)
    bases = [renamed(make(rng), f"_{i}") for i in range(rng.randint(1, 3))]
    whole = disjoint_union(bases, rng)
    # the guess cap counts formulas under L: three premise sets may pass it
    assume(kind == "default" or len(whole.guesses) <= DEFAULT_GUESS_CAP)
    compiled = whole.compiled
    every = sequences.fixed_points(compiled, range(1 << len(compiled[0])))
    kernels = answer(whole)
    table = TruthTable(whole.vocab)
    consistent = [m for m in every if m or kind == "default"]
    assert [table.mask_of(k.worlds) for k in kernels] == consistent
    own = [oracle(base, enumerate_worlds(base.vocab)) for base in bases]
    for k in kernels:
        if not k.worlds:
            # the inconsistent extension: facts without a model in some base
            assert kernels == [k] and any(frozenset() in classes for classes in own)
            continue
        for base, classes in zip(bases, own):
            assert projected(k.worlds, base.vocab) in classes


def test_inconsistent_facts_beside_a_part_with_no_extension():
    # p's rule sits with facts that have no model, q's rule defeats
    # itself: the inconsistent extension alone, though q's part has none
    theory = parse_kb(
        "vocab: p q\nfact: p & ~p\nrule r: true : M p / p\nrule s: true : M q / ~q\n", "default"
    ).body
    assert labels(theory) == [["r"], ["s"]]
    (kernel,) = extensions(theory)
    assert not kernel.worlds
    assert brute_force_default_last_classes(theory, enumerate_worlds(theory.vocab)) == {
        frozenset()
    }
    alone = parse_kb("vocab: q\nrule s: true : M q / ~q\n", "default").body
    assert extensions(alone) == []
    assert brute_force_default_last_classes(alone, enumerate_worlds(alone.vocab)) == set()


def test_inconsistent_belief_part_beside_a_consistent_one():
    # p and ~p close every vector to no world; q's part alone has one
    # consistent expansion, and the whole has none
    premises = parse_kb("vocab: p q\np\n~p\n~L ~q -> q\n", "ael").body
    assert len(premises.parts) == 2
    worlds = enumerate_worlds(premises.vocab)
    assert stable_expansions(premises) == []
    assert brute_force_ael_last_classes(premises, worlds) == set()
    assert forced_inconsistency(premises)
    alone = parse_kb("vocab: q\n~L ~q -> q\n", "ael").body
    (kernel,) = stable_expansions(alone)
    assert brute_force_ael_last_classes(alone, enumerate_worlds(alone.vocab)) == {kernel.worlds}


def test_fact_joins_the_parts_it_mentions():
    # apart, the rules on a and on b give the one extension ~a & ~b; the
    # fact a | b ties them into one part, whose two extensions each
    # apply one rule
    rules = "vocab: a b\nrule r: true : M ~a / ~a\nrule s: true : M ~b / ~b\n"
    for facts, parts, count in (("", [["r"], ["s"]], 1), ("fact: a | b\n", [["r", "s"]], 2)):
        theory = parse_kb(rules + facts, "default").body
        assert labels(theory) == parts
        got = [k.worlds for k in extensions(theory)]
        assert len(got) == count
        assert set(got) == brute_force_default_last_classes(theory, enumerate_worlds(theory.vocab))
        compiled = theory.compiled
        every = sequences.fixed_points(compiled, range(1 << len(compiled[0])))
        assert [TruthTable(theory.vocab).mask_of(k) for k in got] == every


@pytest.mark.parametrize(
    "kind, text, parts, count",
    [
        (
            "default",
            "rule r: true : M p / p\nrule t: true : M true / true\n"
            "rule u: true : M ~false / true\n",
            [["r"], ["t", "u"]],
            1,
        ),
        ("default", "rule r: true : M p / p\nrule t: true : M true / false\n", [["r"], ["t"]], 0),
        (
            "ael",
            "~L ~p -> p\n~L false -> true\nL true -> true\n",
            [["~L ~p -> p"], ["~L false -> true", "L true -> true"]],
            1,
        ),
        ("ael", "~L ~p -> p\nL true -> false\n", [["~L ~p -> p"], ["L true -> false"]], 0),
    ],
    ids=["default", "default-defeated", "ael", "ael-defeated"],
)
def test_items_without_constants_are_a_part(kind, text, parts, count):
    _, answer, oracle = KINDS[kind]
    base = parse_kb("vocab: p\n" + text, kind).body
    assert labels(base) == parts
    got = [k.worlds for k in answer(base)]
    assert len(got) == count
    assert set(got) == oracle(base, enumerate_worlds(base.vocab))


def test_products_come_in_report_order():
    # each part has a one-world extension and a two-world one. With b's
    # constants first, a & ~b & y holds lower worlds than ~a & x & b, so
    # it comes first, though it takes the first part's later point
    theory = parse_kb(
        "vocab: b y a x\n"
        "rule r: true : M a / a\nrule s: true : M ~a / ~a & x\n"
        "rule t: true : M b / b\nrule u: true : M ~b / ~b & y\n",
        "default",
    ).body
    assert labels(theory) == [["r", "s"], ["t", "u"]]
    got = [k.worlds for k in extensions(theory)]
    assert list(map(len, got)) == [1, 2, 2, 4]
    compiled = theory.compiled
    every = sequences.fixed_points(compiled, range(1 << len(compiled[0])))
    assert [TruthTable(theory.vocab).mask_of(k) for k in got] == every
    assert set(got) == brute_force_default_last_classes(theory, enumerate_worlds(theory.vocab))

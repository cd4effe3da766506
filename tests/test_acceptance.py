"""Acceptance suite: one test per shipped criterion, at its stated
tolerance, each printing a pass line (run with ``pytest -v -s``).

Exact means exact: rational arithmetic end to end, compared with ==.
The two brute-force suites re-derive the fixed-point answers from the
written sequence conditions alone, with no engine code in the loop.
"""

import random
from fractions import Fraction

import pytest

from partseq import (
    Const,
    InconsistencyReport,
    Not,
    Or,
    And,
    PartitionSequence,
    build_ael_sequences,
    build_default_sequences,
    build_poss_sequence,
    check_ael_sequence,
    cond_prob,
    condition,
    enumerate_threshold_orders,
    enumerate_worlds,
    extensions,
    isomorphic,
    lottery_space,
    models,
    necessity,
    parse_formula,
    parse_kb,
    possibility,
    stable_expansions,
    threshold,
    threshold_prob,
    BelowThresholdError,
)
from partseq.cli import main as cli_main
from genkit import (
    brute_force_ael_last_classes,
    brute_force_default_last_classes,
    direct_cond_prob,
    random_default_theory,
    random_formula,
    random_possibilistic_kb,
    random_premises,
    random_space,
    stepwise_threshold_accepts,
)

P, Q = Const("p"), Const("q")

RIVALS_DL = """vocab: p q
rule r1: true : M p / p
rule r2: true : M ~p / ~p
rule r3: p : M q / q
"""

SELF_DEFEATING_DL = """vocab: p
rule r1: true : M p / ~p
"""

INTROSPECTIVE_AEL = """vocab: p q
L p -> p
~L p -> q
"""

THWARTED_AEL = """vocab: p q
~L p -> q
~q
"""


def world_map(vocab):
    return {w.bits(): w for w in enumerate_worlds(vocab)}


def test_criterion_01_rival_defaults_reproduced(tmp_path, capsys):
    kb = tmp_path / "rivals.dl"
    kb.write_text(RIVALS_DL)
    assert cli_main(["default", "extensions", str(kb)]) == 0
    assert cli_main(["default", "sequences", str(kb)]) == 0
    capsys.readouterr()

    doc = parse_kb(RIVALS_DL, "default")
    theory = doc.body
    worlds = enumerate_worlds(doc.vocab)
    got = {k.worlds for k in extensions(theory)}
    assert got == {models(Not(P), worlds), models(And(P, Q), worlds)}

    bb = world_map(doc.vocab)
    published_first = PartitionSequence.of_classes(
        (
            frozenset(),
            frozenset({bb[(1, 1)], bb[(1, 0)]}),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
        ),
        doc.vocab,
        "default",
    )
    published_second = PartitionSequence.of_classes(
        (
            frozenset(),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
            frozenset({bb[(1, 0)]}),
            frozenset({bb[(1, 1)]}),
        ),
        doc.vocab,
        "default",
    )
    built = build_default_sequences(theory)
    assert {s.classes for s in built} == {
        published_first.classes,
        published_second.classes,
    }
    assert any(isomorphic(s, published_first) for s in built)
    assert any(isomorphic(s, published_second) for s in built)
    print("criterion 1: PASS - rival-defaults theory: extensions and sequences verbatim")


def test_criterion_02_negative_theories_exit_one(tmp_path, capsys):
    dl = tmp_path / "selfdefeating.dl"
    dl.write_text(SELF_DEFEATING_DL)
    ael = tmp_path / "thwarted.ael"
    ael.write_text(THWARTED_AEL)

    assert cli_main(["default", "extensions", str(dl)]) == 1
    assert cli_main(["ael", "expansions", str(ael)]) == 1
    capsys.readouterr()

    theory = parse_kb(SELF_DEFEATING_DL, "default").body
    assert extensions(theory) == []
    assert build_default_sequences(theory) == []

    premises = parse_kb(THWARTED_AEL, "ael").body
    assert stable_expansions(premises) == []
    assert build_ael_sequences(premises) == []
    print("criterion 2: PASS - no-extension and no-expansion bases: exit 1, empty builders")


def test_criterion_03_introspective_premises_reproduced():
    doc = parse_kb(INTROSPECTIVE_AEL, "ael")
    premises = doc.body
    worlds = enumerate_worlds(doc.vocab)
    got = {k.worlds for k in stable_expansions(premises)}
    assert got == {models(P, worlds), models(Q, worlds)}

    bb = world_map(doc.vocab)
    toward_p = PartitionSequence.of_classes(
        (
            frozenset(),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
            frozenset({bb[(1, 1)], bb[(1, 0)]}),
        ),
        doc.vocab,
        "autoepistemic",
    )
    toward_q = PartitionSequence.of_classes(
        (
            frozenset(),
            frozenset({bb[(1, 0)], bb[(0, 0)]}),
            frozenset({bb[(1, 1)], bb[(0, 1)]}),
        ),
        doc.vocab,
        "autoepistemic",
    )
    assert check_ael_sequence(premises, toward_p) == []
    assert check_ael_sequence(premises, toward_q) == []
    print("criterion 3: PASS - introspective premises: kernels p and q, published sequences check out")


def test_criterion_04_weighted_conditioning_exact():
    space = parse_kb(
        "vocab: p q\n"
        "world p,q : 0.2\n"
        "world p,~q : 0.3\n"
        "world ~p,q : 0.1\n"
        "world ~p,~q : 0.4\n",
        "prob",
    ).body
    conds = [parse_formula("p -> q", space.vocab), parse_formula("p | q", space.vocab)]
    seq = condition(space, conds)
    assert cond_prob(seq, P) == Fraction(2, 3)
    assert cond_prob(seq, Q) == Fraction(1)
    print("criterion 4: PASS - conditional probabilities 2/3 and 1, exact rationals")


def test_criterion_05_lottery_thresholding_exact():
    space = lottery_space(100)
    neg = [parse_formula(f"~p{i}", space.vocab) for i in range(1, 6)]
    eps_loose = Fraction(1, 99)

    seq = threshold(space, eps_loose, neg[:2])
    masses = [sum((w.weight for w in cls), Fraction(0)) for cls in seq.classes]
    tail = [sum(masses[i:], Fraction(0)) for i in range(len(masses))]
    assert masses[0] / tail[0] == Fraction(1, 100)
    assert masses[1] / tail[1] == Fraction(1, 99)

    assert threshold_prob(space, eps_loose, neg[:2], Const("p1")) == 0
    assert threshold_prob(space, eps_loose, neg[:2], Const("p2")) == 0
    for i in range(3, 101):
        assert threshold_prob(space, eps_loose, neg[:2], Const(f"p{i}")) == Fraction(1, 98)

    with pytest.raises(BelowThresholdError):
        threshold(space, eps_loose, neg[:3])

    eps_tight = Fraction(1, 100)
    accepted = enumerate_threshold_orders(space, eps_tight, neg, maxlen=3)
    assert accepted == [(phi,) for phi in neg] or set(accepted) == {(phi,) for phi in neg}
    assert all(len(order) == 1 for order in accepted)
    assert len(accepted) == 5
    print("criterion 5: PASS - lottery ratios 1/100 and 1/99 exact; tighter bar stops after one ticket")


def test_criterion_06_possibility_bases_reproduced():
    nested = parse_kb("vocab: p q\nposs 0.3 : p & q\nposs 0.7 : p\n", "poss").body
    seq = build_poss_sequence(nested)
    assert isinstance(seq, PartitionSequence)
    tolerance = Fraction(1, 10**9)
    assert abs(possibility(seq, P) - Fraction("0.7")) <= tolerance
    assert abs(possibility(seq, Q) - 1) <= tolerance
    assert abs(possibility(seq, Not(Q)) - 1) <= tolerance

    contradictory = parse_kb("vocab: p q\nposs 0.3 : p\nposs 0.5 : p & q\n", "poss").body
    report = build_poss_sequence(contradictory)
    assert isinstance(report, InconsistencyReport)
    assert any(v.item == "p & q" for v in report.violations)
    print("criterion 6: PASS - possibility 0.7/1/1 within 1e-9; contradictory base names p & q")


def test_criterion_07_default_fixed_points_match_sequence_semantics():
    rng = random.Random(0xD9)
    for i in range(200):
        theory = random_default_theory(rng)
        worlds = enumerate_worlds(theory.vocab)
        expected = brute_force_default_last_classes(theory, worlds)
        got = {k.worlds for k in extensions(theory)}
        assert got == expected, f"instance {i}: {theory}"
    print("criterion 7: PASS - 200 random default theories: last classes == extensions")


def test_criterion_08_belief_fixed_points_match_sequence_semantics():
    rng = random.Random(0x13)
    for i in range(200):
        premises = random_premises(rng)
        worlds = enumerate_worlds(premises.vocab)
        expected = brute_force_ael_last_classes(premises, worlds)
        got = {k.worlds for k in stable_expansions(premises)}
        assert got == expected, f"instance {i}: {premises}"
    print("criterion 8: PASS - 200 random premise sets: nonempty last classes == stable expansions")


def test_criterion_09_probability_oracle_agreement():
    rng = random.Random(0x11)
    for i in range(500):
        space = random_space(rng)
        names = space.vocab.names
        conds = [
            random_formula(rng, names, rng.randint(0, 3))
            for _ in range(rng.randint(1, 3))
        ]
        psi = random_formula(rng, names, rng.randint(0, 3))

        expected = direct_cond_prob(space, conds, psi)
        if expected is not None:
            got = cond_prob(condition(space, conds), psi)
            assert got == expected
            assert abs(got - expected) <= Fraction(1, 10**12)

        eps = Fraction(rng.randint(0, 8), 8)
        failing = stepwise_threshold_accepts(space, eps, conds)
        if failing is None:
            seq = threshold(space, eps, conds)
            if expected is not None:
                assert threshold_prob(space, eps, conds, psi) == expected
        else:
            with pytest.raises(BelowThresholdError) as info:
                threshold(space, eps, conds)
            assert info.value.step == failing
    print("criterion 9: PASS - 500 random spaces: ratios and acceptance agree exactly")


def test_criterion_10_possibility_axioms_hold_exactly():
    rng = random.Random(0x17)
    checked = 0
    while checked < 500:
        kb = random_possibilistic_kb(rng)
        seq = build_poss_sequence(kb)
        if isinstance(seq, InconsistencyReport):
            continue
        checked += 1
        names = kb.vocab.names
        phi = random_formula(rng, names, rng.randint(0, 3))
        psi = random_formula(rng, names, rng.randint(0, 3))
        assert possibility(seq, Or(phi, psi)) == max(
            possibility(seq, phi), possibility(seq, psi)
        )
        assert necessity(seq, And(phi, psi)) == min(
            necessity(seq, phi), necessity(seq, psi)
        )
        assert min(necessity(seq, phi), necessity(seq, Not(phi))) == 0
        for formulas, value in kb.levels:
            for member in formulas:
                assert possibility(seq, member) == value
    print("criterion 10: PASS - 500 random consistent bases: all four measure laws exact")

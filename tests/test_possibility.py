"""Possibility measures, sequence construction, and the axioms."""

import random
from fractions import Fraction

import pytest

from partseq import (
    FALSE,
    TRUE,
    And,
    Const,
    InconsistencyReport,
    Not,
    Or,
    PartitionSequence,
    PossibilisticKB,
    ResourceLimitError,
    Violation,
    Vocabulary,
    World,
    build_poss_sequence,
    check_poss_sequence,
    conjoin,
    enumerate_worlds,
    format_formula,
    necessity,
    possibility,
    sequence_from_json,
    sequence_to_json,
    validate_structure,
)
from partseq.logic import TruthTable
from genkit import (
    brute_force_poss_classes,
    per_world_possibility,
    random_formula,
    random_possibilistic_kb,
)

P, Q = Const("p"), Const("q")


def consistent_kbs(count, seed):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        kb = random_possibilistic_kb(rng)
        seq = build_poss_sequence(kb)
        if isinstance(seq, InconsistencyReport):
            continue
        produced += 1
        yield kb, seq


class TestLevels:
    """A base refuses levels that no possibility distribution has."""

    @pytest.mark.parametrize(
        "levels, message",
        [
            ((), "a possibilistic base needs at least one level"),
            (((frozenset(), Fraction(1)),), "empty formula set in a possibilistic level"),
            (((frozenset([P]), Fraction(3, 2)),), "possibility value 3/2 outside [0, 1]"),
            (
                ((frozenset([P]), Fraction(10**5000)),),
                f"possibility value 1{'0' * 39}... outside [0, 1]",
            ),
            (
                ((frozenset([P]), Fraction(1, 2)), (frozenset([Q]), Fraction(1, 2))),
                "possibility values must increase strictly",
            ),
        ],
        ids=["no level", "empty level", "value above 1", "long value above 1", "equal values"],
    )
    def test_refused(self, pq, levels, message):
        with pytest.raises(ValueError) as got:
            PossibilisticKB(levels, pq)
        assert str(got.value) == message


class TestBuild:
    def test_nested_claims_published_weights(self, nested_kb, pq):
        seq = build_poss_sequence(nested_kb)
        assert isinstance(seq, PartitionSequence)
        by_class = [
            {(w.bits(), w.weight) for w in cls} for cls in seq.classes
        ]
        assert by_class[0] == {((1, 1), Fraction(3, 10))}
        assert by_class[1] == {((1, 0), Fraction(4, 10))}
        assert by_class[2] == {
            ((0, 1), Fraction(15, 100)),
            ((0, 0), Fraction(15, 100)),
        }

    def test_contradictory_base_reported(self, contradictory_kb):
        report = build_poss_sequence(contradictory_kb)
        assert isinstance(report, InconsistencyReport)
        assert any(v.item == "p & q" for v in report.violations)

    def test_impossible_formula_at_level_zero_allowed(self):
        vocab = Vocabulary(["p"])
        kb = PossibilisticKB(
            levels=((frozenset([FALSE]), Fraction(0)),), vocab=vocab
        )
        seq = build_poss_sequence(kb)
        assert isinstance(seq, PartitionSequence)
        assert seq.classes[0] == frozenset()

    def test_saturated_top_level_leaves_empty_final_class(self):
        vocab = Vocabulary(["p"])
        kb = PossibilisticKB(
            levels=((frozenset([TRUE]), Fraction(1)),), vocab=vocab
        )
        seq = build_poss_sequence(kb)
        assert isinstance(seq, PartitionSequence)
        assert seq.classes[-1] == frozenset()

    def test_full_coverage_claim_below_one_is_inconsistent(self):
        vocab = Vocabulary(["p"])
        kb = PossibilisticKB(
            levels=((frozenset([TRUE]), Fraction(1, 2)),), vocab=vocab
        )
        report = build_poss_sequence(kb)
        assert isinstance(report, InconsistencyReport)

    def test_structure_and_normalisation(self):
        for kb, seq in consistent_kbs(60, seed=313131):
            worlds = enumerate_worlds(kb.vocab)
            assert validate_structure(seq, worlds) == []
            total = sum(
                (w.weight for cls in seq.classes for w in cls), Fraction(0)
            )
            assert total == 1


class TestCheck:
    def test_builder_output_accepted(self):
        for kb, seq in consistent_kbs(40, seed=323232):
            assert check_poss_sequence(kb, seq) == []

    def test_any_split_meeting_totals_accepted(self, nested_kb, pq):
        k = Fraction(1, 10)
        classes = (
            frozenset({World(pq, ["p", "q"], Fraction("0.3"))}),
            frozenset({World(pq, ["p"], Fraction("0.4"))}),
            frozenset(
                {World(pq, ["q"], k), World(pq, [], Fraction("0.3") - k)}
            ),
        )
        seq = PartitionSequence.of_classes(classes, pq, "possibility")
        assert check_poss_sequence(nested_kb, seq) == []

    def test_wrong_class_total_rejected(self, nested_kb, pq):
        classes = (
            frozenset({World(pq, ["p", "q"], Fraction("0.3"))}),
            frozenset({World(pq, ["p"], Fraction("0.5"))}),
            frozenset(
                {World(pq, ["q"], Fraction("0.1")), World(pq, [], Fraction("0.1"))}
            ),
        )
        seq = PartitionSequence.of_classes(classes, pq, "possibility")
        problems = check_poss_sequence(nested_kb, seq)
        assert any(p.clause == "condition 2" for p in problems)

    def test_contradictory_base_candidate_rejected(self, contradictory_kb, pq):
        classes = (
            frozenset(
                {
                    World(pq, ["p", "q"], Fraction("0.15")),
                    World(pq, ["p"], Fraction("0.15")),
                }
            ),
            frozenset(),
            frozenset(
                {World(pq, ["q"], Fraction("0.35")), World(pq, [], Fraction("0.35"))}
            ),
        )
        seq = PartitionSequence.of_classes(classes, pq, "possibility")
        problems = check_poss_sequence(contradictory_kb, seq)
        assert any(p.clause == "condition 1" for p in problems)

    def test_wrong_membership_rejected(self, nested_kb, pq):
        classes = (
            frozenset({World(pq, ["p"], Fraction("0.3"))}),
            frozenset({World(pq, ["p", "q"], Fraction("0.4"))}),
            frozenset(
                {World(pq, ["q"], Fraction("0.15")), World(pq, [], Fraction("0.15"))}
            ),
        )
        seq = PartitionSequence.of_classes(classes, pq, "possibility")
        problems = check_poss_sequence(nested_kb, seq)
        assert any(p.clause == "condition 1" for p in problems)


class TestMeasures:
    def test_published_values(self, nested_kb):
        seq = build_poss_sequence(nested_kb)
        assert possibility(seq, P) == Fraction(7, 10)
        assert possibility(seq, Q) == 1
        assert possibility(seq, Not(Q)) == 1
        assert possibility(seq, FALSE) == 0
        assert necessity(seq, P) == 0
        assert necessity(seq, TRUE) == 1
        assert necessity(seq, Not(And(P, Q))) == Fraction(7, 10)

    def test_axioms_on_random_consistent_bases(self):
        rng = random.Random(343434)
        for kb, seq in consistent_kbs(120, seed=353535):
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

    def test_fidelity_to_stated_levels(self):
        for kb, seq in consistent_kbs(120, seed=363636):
            for formulas, value in kb.levels:
                for phi in formulas:
                    assert possibility(seq, phi) == value

    def test_sparse_sequence_over_wide_vocabulary(self):
        # 1200 constants and 40 worlds: the measures index the listed
        # worlds, where a truth table of the vocabulary could never fit
        rng = random.Random(373737)
        vocab = Vocabulary(f"c{i}" for i in range(1200))
        used = rng.sample(vocab.names, 6)
        listed = {
            World(vocab, rng.sample(used, rng.randint(0, 6)) + [rng.choice(vocab.names)])
            for _ in range(40)
        }
        cuts = sorted(listed, key=World.bits)
        classes = [cuts[:24], cuts[24:37], [], cuts[37:]]
        gaps = [Fraction(1, 10), Fraction(3, 10), Fraction(0), Fraction(6, 10)]
        weighted = [frozenset(w.reweighted(gap / len(c)) for w in c) for c, gap in zip(classes, gaps)]
        seq = PartitionSequence.of_classes(tuple(weighted), vocab, "possibility")
        values = set()
        for _ in range(100):
            if rng.random() < 0.5:
                phi = random_formula(rng, used, rng.randint(0, 4))
            else:  # a cube, true in few worlds
                picked = rng.sample(used, rng.randint(1, 3))
                phi = conjoin(rng.choice((Const(n), Not(Const(n)))) for n in picked)
            pi, nec = possibility(seq, phi), necessity(seq, phi)
            assert pi == per_world_possibility(seq, phi)
            assert nec == 1 - per_world_possibility(seq, Not(phi))
            values.add((pi, nec))
        assert len(values) >= 5

    def test_builder_table_compiles_atoms_densely(self):
        # the builder lists the dense table's worlds in index order, so every
        # atom's mask is the dense one, at 14 constants as at 1
        rng = random.Random(404040)
        kbs = [kb for kb, _ in consistent_kbs(60, seed=414141)]
        wide = Vocabulary(f"c{i}" for i in range(14))
        kbs.append(PossibilisticKB(((frozenset({Const("c0")}), Fraction(1, 2)),), wide))
        for kb in kbs:
            table, dense = build_poss_sequence(kb).table, TruthTable(kb.vocab)
            for name in rng.sample(kb.vocab.names, len(kb.vocab)):
                assert table.mask(Const(name)) == dense.mask(Const(name))

    def test_builder_table_matches_fresh_table(self):
        # the builder's sequence keeps its truth table, reweighted; a JSON
        # round trip lists the same worlds in a table of their own
        rng = random.Random(383838)
        for kb, seq in consistent_kbs(150, seed=393939):
            fresh = sequence_from_json(sequence_to_json(seq))
            assert fresh.table is not seq.table and seq.table.size == 1 << len(kb.vocab)
            assert fresh.classes == seq.classes and fresh.provenance == seq.provenance
            assert weighed(fresh) == weighed(seq)
            assert check_poss_sequence(kb, fresh) == check_poss_sequence(kb, seq) == []
            names = kb.vocab.names
            for _ in range(4):
                phi = random_formula(rng, names, rng.randint(0, 3))
                assert possibility(fresh, phi) == possibility(seq, phi)
                assert necessity(fresh, phi) == necessity(seq, phi)
                assert possibility(seq, phi) == per_world_possibility(seq, phi)


def weighed(seq):
    """Each class as its set of (truth values, weight) pairs."""
    return [{(w.bits(), w.weight) for w in cls} for cls in seq.classes]


class TestWorldCap:
    def test_twenty_one_constants_refused(self):
        vocab = Vocabulary([f"c{i}" for i in range(21)])
        kb = PossibilisticKB(levels=((frozenset([Const("c0")]), Fraction(1, 2)),), vocab=vocab)
        seq = PartitionSequence.of_classes((frozenset(), frozenset()), vocab, "possibility")
        for run in (lambda: build_poss_sequence(kb), lambda: check_poss_sequence(kb, seq)):
            with pytest.raises(ResourceLimitError, match="capped at 20"):
                run()


class TestAgainstBruteForce:
    """Builder and checker against the level walk of
    ``genkit.brute_force_poss_classes``, on 300 random bases."""

    @staticmethod
    def expected_violations(seq, level_classes, support_problems, gaps):
        problems = list(support_problems)
        for i, (got, want) in enumerate(zip(seq.classes, level_classes[:-1])):
            if got != want:
                problems.append(
                    Violation(
                        "condition 1",
                        "class does not match the level's supporting worlds",
                        class_index=i,
                    )
                )
        for i, (cls, gap) in enumerate(zip(seq.classes, gaps)):
            total = sum((w.weight for w in cls), Fraction(0))
            if total != gap:
                problems.append(
                    Violation(
                        "condition 2",
                        f"class weight totals {total}, expected {gap}",
                        class_index=i,
                    )
                )
        return problems

    def test_builder_and_checker_match_the_level_walk(self):
        rng = random.Random(373737)
        built_count = report_count = 0
        for _ in range(300):
            kb = random_possibilistic_kb(rng)
            if rng.random() < 0.25:
                # a zero bottom level may hold formulas no world supports
                zero = ((kb.levels[0][0], Fraction(0)),)
                kb = PossibilisticKB(zero + kb.levels[1:], kb.vocab)
            classes, problems = brute_force_poss_classes(kb, enumerate_worlds(kb.vocab))
            values = (Fraction(0),) + kb.values + (Fraction(1),)
            gaps = [high - low for low, high in zip(values, values[1:])]
            # the level walk, weighed uniformly within each class
            walked = PartitionSequence.of_classes(
                tuple(
                    frozenset(w.reweighted(gap / len(cls)) for w in cls)
                    for cls, gap in zip(classes, gaps)
                ),
                kb.vocab,
                "possibility",
                tuple("; ".join(sorted(map(format_formula, fs))) for fs, _ in kb.levels)
                + ("",),
            )
            built = build_poss_sequence(kb)
            if problems or (not classes[-1] and gaps[-1] > 0):
                report_count += 1
                if not classes[-1] and gaps[-1] > 0:
                    problems = problems + [
                        Violation(
                            "condition 2",
                            f"no worlds remain for the top class yet weight "
                            f"{gaps[-1]} is left to place",
                            class_index=len(classes) - 1,
                        )
                    ]
                assert isinstance(built, InconsistencyReport)
                assert built.violations == tuple(problems)
                assert str(built) == "; ".join(map(str, problems))
                support = [p for p in problems if p.clause == "condition 1"]
                assert check_poss_sequence(kb, walked) == self.expected_violations(
                    walked, classes, support, gaps
                )
                continue

            built_count += 1
            assert isinstance(built, PartitionSequence)
            assert weighed(built) == weighed(walked)
            assert built.provenance == walked.provenance
            assert check_poss_sequence(kb, built) == []

            pairs = [
                (i, j)
                for i in range(len(classes))
                for j in range(i + 1, len(classes))
                if classes[i] != classes[j]
            ]
            i, j = rng.choice(pairs)
            swapped = list(built.classes)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            seq = PartitionSequence.of_classes(tuple(swapped), kb.vocab, "possibility")
            expected = self.expected_violations(seq, classes, [], gaps)
            assert expected
            assert check_poss_sequence(kb, seq) == expected
        # both outcomes are well represented: 84 bases build, 216 do not
        assert built_count >= 50 and report_count >= 50

"""Default-rule engine: fixed-point operator, extensions, sequences."""

import random

import pytest

from partseq import (
    FALSE,
    TRUE,
    Const,
    DefaultRule,
    DefaultTheory,
    Not,
    PartitionSequence,
    ResourceLimitError,
    Vocabulary,
    World,
    build_default_sequences,
    check_default_sequence,
    enumerate_worlds,
    extensions,
    gamma_operator,
    models,
    validate_structure,
)
from genkit import (
    _default_sequence_ok,
    _TruthSets,
    brute_force_default_last_classes,
    default_candidates,
    default_operator,
    random_default_theory,
    random_nonempty_subset,
)

P, Q = Const("p"), Const("q")


def by_bits(vocab):
    return {w.bits(): w for w in enumerate_worlds(vocab)}


class TestGammaOperator:
    def test_rival_fixed_points(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        e_pq = models(P & Q, worlds)
        assert gamma_operator(rival_theory, e_pq) == e_pq
        e_not_p = models(Not(P), worlds)
        assert gamma_operator(rival_theory, e_not_p) == e_not_p

    def test_no_rules_returns_fact_models(self, pq):
        theory = DefaultTheory(rules=(), facts=(P,), vocab=pq)
        worlds = enumerate_worlds(pq)
        for candidate in (frozenset(), models(Q, worlds), frozenset(worlds)):
            assert gamma_operator(theory, candidate) == models(P, worlds)

    def test_non_fixed_point(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        everything = frozenset(worlds)
        assert gamma_operator(rival_theory, everything) != everything

    def test_output_always_satisfies_facts(self):
        rng = random.Random(4242)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            fact_worlds = models(theory.fact_formula, worlds)
            candidate = frozenset(w for w in worlds if rng.random() < 0.5)
            assert gamma_operator(theory, candidate) <= fact_worlds

    def test_agrees_with_definition_off_fixed_points(self):
        rng = random.Random(5151)
        moved = 0
        for _ in range(300):
            theory = random_default_theory(rng)
            ts = _TruthSets(enumerate_worlds(theory.vocab))
            for _ in range(8):
                candidate = random_nonempty_subset(rng, ts.worlds)
                got = gamma_operator(theory, candidate)
                assert got == default_operator(theory, candidate, ts), (theory, candidate)
                moved += got != candidate
        assert moved > 0


class TestExtensions:
    def test_rival_theory_has_two(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        got = {k.worlds for k in extensions(rival_theory)}
        assert got == {models(Not(P), worlds), models(P & Q, worlds)}

    def test_self_defeating_has_none(self, self_defeating_theory):
        assert extensions(self_defeating_theory) == []

    def test_facts_only(self, pq):
        theory = DefaultTheory(rules=(), facts=(P,), vocab=pq)
        kernels = extensions(theory)
        assert len(kernels) == 1
        assert kernels[0].worlds == models(P, enumerate_worlds(pq))

    def test_inconsistent_facts_flagged_by_empty_model_set(self, pq):
        theory = DefaultTheory(
            rules=(DefaultRule("r1", TRUE, (P,), P),), facts=(FALSE,), vocab=pq
        )
        kernels = extensions(theory)
        assert len(kernels) == 1
        assert not kernels[0].is_consistent

    def test_rule_cap(self, pq):
        rules = tuple(DefaultRule(f"r{i}", TRUE, (P,), P) for i in range(17))
        with pytest.raises(ResourceLimitError):
            extensions(DefaultTheory(rules=rules, facts=(), vocab=pq))


class TestWorldCap:
    NAMES = [f"c{i}" for i in range(20)]

    def chain(self, names):
        """Facts pin all but the last six constants; six rules
        ``true : M c / c`` set the rest, so all constants end up true."""
        vocab = Vocabulary(names)
        return DefaultTheory(
            rules=tuple(
                DefaultRule(f"r{i}", TRUE, (Const(n),), Const(n))
                for i, n in enumerate(names[-6:])
            ),
            facts=tuple(Const(n) for n in names[:-6]),
            vocab=vocab,
        )

    def test_twenty_constants_run(self):
        theory = self.chain(self.NAMES)
        (kernel,) = extensions(theory)
        assert kernel.worlds == {World(theory.vocab, self.NAMES)}
        assert gamma_operator(theory, kernel.worlds) == kernel.worlds

    def test_twenty_one_constants_refused(self):
        theory = self.chain(self.NAMES + ["c20"])
        seq = PartitionSequence.of_classes((frozenset(), frozenset()), theory.vocab, "default")
        for run in (
            lambda: extensions(theory),
            lambda: gamma_operator(theory, frozenset()),
            lambda: build_default_sequences(theory),
            lambda: check_default_sequence(theory, seq),
        ):
            with pytest.raises(ResourceLimitError, match="capped at 20"):
                run()

    def test_twenty_constants_sequences_stay_masks(self):
        # no World is built: a first class of 2^20 - 64 worlds is never listed
        theory = self.chain(self.NAMES)
        seqs = build_default_sequences(theory, order_limit=5)
        assert len(seqs) == 5
        extension = 1 << seqs[0].table.index(World(theory.vocab, self.NAMES))
        for seq in seqs:
            assert "classes" not in seq.__dict__ and not seq.table._worlds
            assert seq.masks[-1] == extension


class TestBuildSequences:
    def test_rival_theory_published_classes(self, rival_theory, pq):
        bb = by_bits(pq)
        seqs = build_default_sequences(rival_theory)
        as_tuples = {tuple(s.classes) for s in seqs}
        first = (
            frozenset(),
            frozenset({bb[(1, 1)], bb[(1, 0)]}),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
        )
        second = (
            frozenset(),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
            frozenset({bb[(1, 0)]}),
            frozenset({bb[(1, 1)]}),
        )
        assert as_tuples == {first, second}

    def test_self_defeating_builds_nothing(self, self_defeating_theory):
        assert build_default_sequences(self_defeating_theory) == []

    def test_facts_only_single_split(self):
        vocab = Vocabulary(["p"])
        theory = DefaultTheory(rules=(), facts=(P,), vocab=vocab)
        (seq,) = build_default_sequences(theory)
        w_false, w_true = enumerate_worlds(vocab)
        assert seq.classes == (frozenset({w_false}), frozenset({w_true}))

    def test_inconsistent_facts_build_nothing(self, pq):
        theory = DefaultTheory(rules=(), facts=(FALSE,), vocab=pq)
        assert build_default_sequences(theory) == []

    def test_builder_output_passes_checker_and_structure(self):
        rng = random.Random(515151)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            for seq in build_default_sequences(theory, order_limit=20):
                assert validate_structure(seq, worlds) == []
                assert check_default_sequence(theory, seq) == []

    def test_provenance_names_rules(self, rival_theory):
        seqs = build_default_sequences(rival_theory)
        losing_first = next(s for s in seqs if len(s.classes) == 4)
        assert losing_first.provenance == ("", "r1", "r3", "")

    def test_exhausted_order_budget_still_covers_every_extension(self, rival_theory):
        seqs = build_default_sequences(rival_theory, order_limit=1)
        last_classes = {s.last_class for s in seqs}
        assert last_classes == {k.worlds for k in extensions(rival_theory)}


class TestCheckSequence:
    def test_published_sequences_pass(self, rival_theory, pq):
        for seq in build_default_sequences(rival_theory):
            assert check_default_sequence(rival_theory, seq) == []

    def test_self_defeating_candidate_breaks_closure(self, self_defeating_theory):
        vocab = self_defeating_theory.vocab
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset({w_false}), frozenset({w_true})), vocab, "default"
        )
        problems = check_default_sequence(self_defeating_theory, seq)
        assert any(p.clause == "condition 3" for p in problems)

    def test_self_defeating_other_order_breaks_condition_two(
        self, self_defeating_theory
    ):
        vocab = self_defeating_theory.vocab
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset({w_true}), frozenset({w_false})), vocab, "default"
        )
        problems = check_default_sequence(self_defeating_theory, seq)
        assert any(p.clause == "condition 2" for p in problems)

    def test_swapped_classes_break_condition_one(self):
        vocab = Vocabulary(["p"])
        theory = DefaultTheory(rules=(), facts=(P,), vocab=vocab)
        w_false, w_true = enumerate_worlds(vocab)
        seq = PartitionSequence.of_classes(
            (frozenset({w_true}), frozenset({w_false})), vocab, "default"
        )
        problems = check_default_sequence(theory, seq)
        assert any(p.clause == "condition 1" for p in problems)

    def test_strict_mode_requires_witnesses_in_own_class(self, rival_theory):
        # every split removes the conclusion's falsifiers, so a rule whose
        # justification equals its conclusion can never witness one inside
        # its own class
        for seq in build_default_sequences(rival_theory):
            assert check_default_sequence(rival_theory, seq, strict=True) != []

    def test_structural_violations_reported_first(self, rival_theory, pq):
        worlds = enumerate_worlds(pq)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset(list(worlds)[:2])), pq, "default"
        )
        problems = check_default_sequence(rival_theory, seq)
        assert any(p.clause == "coverage" for p in problems)


class TestAgainstBruteForce:
    def test_last_classes_equal_extensions_on_random_theories(self):
        rng = random.Random(909090)
        for _ in range(60):
            theory = random_default_theory(rng)
            worlds = enumerate_worlds(theory.vocab)
            expected = brute_force_default_last_classes(theory, worlds)
            got = {k.worlds for k in extensions(theory)}
            assert got == expected

    def test_checker_agrees_with_oracle_on_every_candidate(self):
        rng = random.Random(4242)
        rejected = 0
        for _ in range(150):
            theory = random_default_theory(rng)
            ts, candidates = default_candidates(theory, enumerate_worlds(theory.vocab))
            for classes in candidates:
                seq = PartitionSequence.of_classes(tuple(classes), theory.vocab, "default")
                ok = _default_sequence_ok(theory, classes, ts)
                assert (check_default_sequence(theory, seq) == []) == ok, seq
                rejected += not ok
        assert rejected > 0

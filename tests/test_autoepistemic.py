"""Belief-premise engine: the operator, expansions, sequences."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partseq import (
    AelPremises,
    Const,
    Kernel,
    ModalFormula,
    Not,
    PartitionSequence,
    ResourceLimitError,
    SemanticError,
    Vocabulary,
    World,
    build_ael_sequences,
    check_ael_sequence,
    conjoin,
    enumerate_worlds,
    forced_inconsistency,
    models,
    omega_operator,
    parse_kb,
    sequences,
    stable_expansions,
    validate_structure,
)
from partseq.logic import And, Formula, TruthTable
from genkit import (
    _ael_sequence_ok,
    _subsets,
    _TruthSets,
    ael_candidates,
    belief_operator,
    brute_force_ael_last_classes,
    cached,
    holds_throughout,
    plain,
    random_nonempty_subset,
    random_premises,
)

P, Q = Const("p"), Const("q")


def by_bits(vocab):
    return {w.bits(): w for w in enumerate_worlds(vocab)}


class TestOmegaOperator:
    def test_both_fixed_points(self, introspective_premises, pq):
        worlds = enumerate_worlds(pq)
        for phi in (P, Q):
            kernel = Kernel(models(phi, worlds), pq)
            assert omega_operator(introspective_premises, kernel).worlds == kernel.worlds

    def test_plain_premise_forces_its_models(self, pq):
        premises = AelPremises((ModalFormula(gamma=P),), pq)
        worlds = enumerate_worlds(pq)
        full = Kernel(frozenset(worlds), pq)
        assert omega_operator(premises, full).worlds == models(P, worlds)

    def test_empty_kernel_rejected(self, introspective_premises, pq):
        with pytest.raises(ValueError):
            omega_operator(introspective_premises, Kernel(frozenset(), pq))

    def test_agrees_with_definition_off_fixed_points(self):
        rng = random.Random(5252)
        moved = 0
        for _ in range(300):
            premises = random_premises(rng)
            ts = _TruthSets(enumerate_worlds(premises.vocab))
            for _ in range(8):
                kernel = Kernel(random_nonempty_subset(rng, ts.worlds), premises.vocab)
                got = omega_operator(premises, kernel).worlds
                assert got == belief_operator(premises, kernel.worlds, ts), (premises, kernel)
                moved += got != kernel.worlds
        assert moved > 0

    def test_shared_compiled_form(self):
        # one premise object serves the search and then the operator; the
        # form it keeps is formulas and masks only, all worlds left by the
        # empty first class last, and equal fresh premises agree
        rng = random.Random(6262)
        for _ in range(200):
            premises = random_premises(rng)
            stable_expansions(premises)
            compiled = premises.compiled
            assert plain(compiled) and plain(premises.guesses, Formula)
            assert cached(premises) == {"guesses", "compiled"}
            _, _, rest = compiled
            table = TruthTable(premises.vocab)
            assert rest == table.full
            assert all(s.masks[0] == table.full & ~rest for s in build_ael_sequences(premises))
            fresh = dataclasses.replace(premises)
            ts = _TruthSets(enumerate_worlds(premises.vocab))
            for _ in range(4):
                kernel = Kernel(random_nonempty_subset(rng, ts.worlds), premises.vocab)
                got = omega_operator(premises, kernel).worlds
                assert got == belief_operator(premises, kernel.worlds, ts), (premises, kernel)
                assert got == omega_operator(fresh, kernel).worlds
            assert premises.compiled is compiled and fresh.compiled == compiled


class TestOperatorReuse:
    """At a fixed point the operator hands back the caller's own worlds."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_expansion_is_its_own_value(self, seed):
        premises = random_premises(random.Random(seed))
        kernels = stable_expansions(premises)
        worlds = enumerate_worlds(premises.vocab)
        assert {k.worlds for k in kernels} == brute_force_ael_last_classes(premises, worlds)
        for k in kernels:
            value = omega_operator(premises, k).worlds
            assert value == k.worlds
            assert set(map(id, value)) == set(map(id, k.worlds))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_expansion_is_handed_back_as_the_same_set(self, seed):
        premises = random_premises(random.Random(seed))
        for k in stable_expansions(premises):
            assert omega_operator(premises, k).worlds is k.worlds

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32))
    def test_plain_set_at_a_fixed_point_gives_an_equal_set(self, seed):
        premises = random_premises(random.Random(seed))
        worlds = enumerate_worlds(premises.vocab)
        for last in brute_force_ael_last_classes(premises, worlds):
            value = omega_operator(premises, Kernel(frozenset(last), premises.vocab)).worlds
            assert value == last and {w.weight for w in value} <= {1}

    def test_weighted_kernel_gives_weight_one_worlds(self, introspective_premises, pq):
        fixed = models(P, enumerate_worlds(pq))
        kernel = Kernel(frozenset(w.reweighted(5) for w in fixed), pq)
        value = omega_operator(introspective_premises, kernel).worlds
        assert value == fixed and {w.weight for w in value} == {1}
        assert not set(map(id, value)) & set(map(id, kernel.worlds))

    def test_foreign_world_is_refused(self, introspective_premises, pq):
        foreign = World(Vocabulary(["p", "r"]), ["p"])
        with pytest.raises(SemanticError, match=r"world \{p, ~r\} is not a world of"):
            omega_operator(introspective_premises, Kernel(frozenset({foreign}), pq))


class TestStableExpansions:
    def test_two_expansions(self, introspective_premises, pq):
        worlds = enumerate_worlds(pq)
        got = {k.worlds for k in stable_expansions(introspective_premises)}
        assert got == {models(P, worlds), models(Q, worlds)}

    def test_thwarted_premises_have_none(self, thwarted_premises):
        assert stable_expansions(thwarted_premises) == []
        assert not forced_inconsistency(thwarted_premises)

    def test_plain_premise_single_expansion(self, pq):
        premises = AelPremises((ModalFormula(gamma=P),), pq)
        kernels = stable_expansions(premises)
        assert len(kernels) == 1
        assert kernels[0].worlds == models(P, enumerate_worlds(pq))

    def test_forced_inconsistency_flag(self, pq):
        premises = AelPremises(
            (ModalFormula(gamma=P), ModalFormula(gamma=Not(P))), pq
        )
        assert stable_expansions(premises) == []
        assert forced_inconsistency(premises)

    def test_forced_inconsistency_beside_a_consistent_expansion(self, pq):
        # believing p contradicts; not believing it licenses nothing, which
        # leaves every world and so does not believe p
        premises = parse_kb("vocab: p q\nL p -> false\n", "ael").body
        (kernel,) = stable_expansions(premises)
        assert kernel.worlds == frozenset(enumerate_worlds(pq))
        assert forced_inconsistency(premises)

    def test_guess_cap(self, pq):
        formulas = tuple(
            ModalFormula(gamma=P, alpha=conjoin([P] * (i + 1))) for i in range(17)
        )
        with pytest.raises(ResourceLimitError):
            stable_expansions(AelPremises(formulas, pq))

    def test_every_expansion_verifies_belief_guesses(self):
        # stability and groundedness, checked semantically: each reported
        # kernel equals the models of the conclusions its own belief
        # statuses license
        rng = random.Random(606060)
        for _ in range(80):
            premises = random_premises(rng)
            worlds = frozenset(enumerate_worlds(premises.vocab))
            for kernel in stable_expansions(premises):
                licensed = worlds
                for pm in premises.formulas:
                    fires = (
                        pm.alpha is None or holds_throughout(pm.alpha, kernel.worlds)
                    ) and not any(holds_throughout(b, kernel.worlds) for b in pm.betas)
                    if fires:
                        licensed &= models(pm.gamma, licensed)
                assert licensed == kernel.worlds


class TestWorldCap:
    NAMES = [f"c{i}" for i in range(20)]

    def premises(self, names):
        """Plain premises for all but the last six constants, and
        ``~L ~c -> c`` for the rest, so all constants end up believed."""
        return AelPremises(
            tuple(ModalFormula(gamma=Const(n)) for n in names[:-6])
            + tuple(ModalFormula(gamma=Const(n), betas=(Not(Const(n)),)) for n in names[-6:]),
            Vocabulary(names),
        )

    def test_twenty_constants_run(self):
        premises = self.premises(self.NAMES)
        (kernel,) = stable_expansions(premises)
        assert kernel.worlds == {World(premises.vocab, self.NAMES)}
        assert omega_operator(premises, kernel) == kernel
        assert not forced_inconsistency(premises)

    def test_twenty_one_constants_refused(self):
        premises = self.premises(self.NAMES + ["c20"])
        kernel = Kernel(frozenset({World(premises.vocab, [])}), premises.vocab)
        seq = PartitionSequence.of_classes((frozenset(), frozenset()), premises.vocab, "autoepistemic")
        for run in (
            lambda: stable_expansions(premises),
            lambda: omega_operator(premises, kernel),
            lambda: forced_inconsistency(premises),
            lambda: build_ael_sequences(premises),
            lambda: check_ael_sequence(premises, seq),
        ):
            with pytest.raises(ResourceLimitError, match="capped at 20"):
                run()

    def chain(self, n, g):
        """``~L ~c -> c`` for the first ``g`` of ``n`` constants: ``g``
        belief conditions, and one expansion, where those ``g`` hold."""
        names = [f"c{i}" for i in range(n)]
        return AelPremises(
            tuple(ModalFormula(gamma=Const(c), betas=(Not(Const(c)),)) for c in names[:g]),
            Vocabulary(names),
        )

    def test_caps_checked_conditions_then_constants(self):
        # each refused before anything is compiled
        for n, g, message in ((20, 17, "capped at 16"), (21, 16, "capped at 20")):
            premises = self.chain(n, g)
            for run in (lambda: stable_expansions(premises), lambda: build_ael_sequences(premises)):
                with pytest.raises(ResourceLimitError, match=message):
                    run()
            assert "compiled" not in premises.__dict__

    def test_thirteen_conditions_over_twenty_constants_in_flat_memory(self):
        # 2^13 guesses, each closed and tested on its own
        premises = self.chain(20, 13)
        tracemalloc.start()
        try:
            (kernel,) = stable_expansions(premises)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kernel.worlds) == 2**7
        assert all(w.true_names >= {f"c{i}" for i in range(13)} for w in kernel.worlds)
        assert peak < 16 << 20

    def test_twelve_conditions_over_sixteen_constants_run(self):
        premises = self.chain(16, 12)
        (kernel,) = stable_expansions(premises)
        assert len(kernel.worlds) == 2**4
        assert all(w.true_names >= {f"c{i}" for i in range(12)} for w in kernel.worlds)

    def test_twenty_constants_sequences_check_clean_as_masks(self, monkeypatch):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 5)
        premises = self.premises(self.NAMES)
        seqs = build_ael_sequences(premises)
        assert len(seqs) == 5
        for seq in seqs:
            assert check_ael_sequence(premises, seq) == []
            assert "classes" not in seq.__dict__ and not seq.table._worlds


class TestBuildSequences:
    def test_published_classes(self, introspective_premises, pq):
        bb = by_bits(pq)
        seqs = build_ael_sequences(introspective_premises)
        as_tuples = {tuple(s.classes) for s in seqs}
        toward_p = (
            frozenset(),
            frozenset({bb[(0, 1)], bb[(0, 0)]}),
            frozenset({bb[(1, 1)], bb[(1, 0)]}),
        )
        toward_q = (
            frozenset(),
            frozenset({bb[(1, 0)], bb[(0, 0)]}),
            frozenset({bb[(1, 1)], bb[(0, 1)]}),
        )
        assert as_tuples == {toward_p, toward_q}

    def test_thwarted_premises_build_nothing(self, thwarted_premises):
        assert build_ael_sequences(thwarted_premises) == []

    def test_single_plain_premise(self):
        vocab = Vocabulary(["p"])
        premises = AelPremises((ModalFormula(gamma=P),), vocab)
        (seq,) = build_ael_sequences(premises)
        w_false, w_true = enumerate_worlds(vocab)
        assert seq.classes == (
            frozenset(),
            frozenset({w_false}),
            frozenset({w_true}),
        )

    def test_exhausted_order_budget_still_covers_every_expansion(
        self, introspective_premises, monkeypatch
    ):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 1)
        seqs = build_ael_sequences(introspective_premises)
        last_classes = {s.last_class for s in seqs}
        assert last_classes == {
            k.worlds for k in stable_expansions(introspective_premises)
        }

    def test_first_class_always_empty_and_checker_agrees(self, monkeypatch):
        monkeypatch.setattr(sequences, "DEFAULT_ORDER_LIMIT", 20)
        rng = random.Random(717171)
        for _ in range(60):
            premises = random_premises(rng)
            worlds = enumerate_worlds(premises.vocab)
            for seq in build_ael_sequences(premises):
                assert seq.classes[0] == frozenset()
                assert validate_structure(seq, worlds) == []
                assert check_ael_sequence(premises, seq) == []


class TestCheckSequence:
    def test_published_sequences_pass(self, introspective_premises):
        for seq in build_ael_sequences(introspective_premises):
            assert check_ael_sequence(introspective_premises, seq) == []

    def test_nonempty_first_class_fails_condition_one(self, introspective_premises, pq):
        bb = by_bits(pq)
        seq = PartitionSequence.of_classes(
            (
                frozenset({bb[(0, 0)]}),
                frozenset({bb[(0, 1)], bb[(1, 0)]}),
                frozenset({bb[(1, 1)]}),
            ),
            pq,
            "autoepistemic",
        )
        problems = check_ael_sequence(introspective_premises, seq)
        assert any(p.clause == "condition 1" for p in problems)

    def test_thwarted_candidate_fails_condition_three(self, thwarted_premises, pq):
        # ending on the ~q worlds: q is licensed there (p not believed)
        # yet false throughout
        bb = by_bits(pq)
        seq = PartitionSequence.of_classes(
            (
                frozenset(),
                frozenset({bb[(1, 1)], bb[(0, 1)]}),
                frozenset({bb[(1, 0)], bb[(0, 0)]}),
            ),
            pq,
            "autoepistemic",
        )
        problems = check_ael_sequence(thwarted_premises, seq)
        assert any(p.clause == "condition 3" for p in problems)

    def test_empty_last_class_rejected(self, introspective_premises, pq):
        worlds = enumerate_worlds(pq)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset(worlds), frozenset()), pq, "autoepistemic"
        )
        problems = check_ael_sequence(introspective_premises, seq)
        assert any(p.clause == "condition 3" for p in problems)

    def test_strict_mode_rejects_operator_style_split(self, introspective_premises):
        # the split is guided by the final class, so the per-class variant,
        # which wants the belief conditions vouched for inside each class,
        # turns it down
        seqs = build_ael_sequences(introspective_premises)
        strict_failures = [
            check_ael_sequence(introspective_premises, s, strict=True) for s in seqs
        ]
        assert any(strict_failures)


class TestAgainstBruteForce:
    def test_last_classes_equal_expansions_on_random_premises(self):
        rng = random.Random(808080)
        for _ in range(60):
            premises = random_premises(rng)
            worlds = enumerate_worlds(premises.vocab)
            expected = brute_force_ael_last_classes(premises, worlds)
            got = {k.worlds for k in stable_expansions(premises)}
            assert got == expected

    @pytest.mark.parametrize(
        "text",
        ["~L p & ~L p -> q\n", "p\n~L p & ~L p -> q\n", "~L q -> p\n~L p & ~L p -> q\n"],
        ids=["alone", "believed", "rivals"],
    )
    def test_condition_named_twice(self, text):
        # the premise names one belief condition twice: its bit must be set
        # once, by |, where + would carry into the next condition's bit
        premises = parse_kb("vocab: p q\n" + text, "ael").body
        worlds = enumerate_worlds(premises.vocab)
        got = {k.worlds for k in stable_expansions(premises)}
        assert got == brute_force_ael_last_classes(premises, worlds) != set()
        ts, candidates = ael_candidates(premises, worlds)
        for kernel in filter(None, _subsets(worlds)):
            got = omega_operator(premises, Kernel(kernel, premises.vocab)).worlds
            assert got == belief_operator(premises, kernel, ts)
        for classes in candidates:
            seq = PartitionSequence.of_classes(tuple(classes), premises.vocab, "autoepistemic")
            ok = _ael_sequence_ok(premises, classes, ts)
            assert (check_ael_sequence(premises, seq) == []) == ok, seq
        for seq in build_ael_sequences(premises):
            assert _ael_sequence_ok(premises, list(seq.classes), ts)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conditions_of_one_mask_share_a_guess(self, n, monkeypatch):
        # ~L ~ci -> ci and ~L ~(ci & ci) -> di: 2n formulas under L but n
        # masks, so 2^n belief vectors are closed; the oracle's candidate
        # sequences outgrow a test past six premises
        names = [f"{x}{i}" for x in "cd" for i in range(n)]
        premises = parse_kb(
            f"vocab: {' '.join(names)}\n"
            + "".join(f"~L ~c{i} -> c{i}\n" for i in range(n))
            + "".join(f"~L ~(c{i} & c{i}) -> d{i}\n" for i in range(n)),
            "ael",
        ).body
        closes = []
        real_close = sequences.close
        monkeypatch.setattr(
            sequences, "close", lambda *args: closes.append(args) or real_close(*args)
        )
        (kernel,) = stable_expansions(premises)
        assert len(premises.guesses) == 2 * n and len(closes) == 2**n
        assert kernel.worlds == {World(premises.vocab, names)}
        if n < 4:
            worlds = enumerate_worlds(premises.vocab)
            assert brute_force_ael_last_classes(premises, worlds) == {kernel.worlds}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32))
    def test_conditions_written_twice(self, seed):
        # some premises write each condition phi as phi & phi, and a copy so
        # written stands beside one premise: one mask, one condition bit
        rng = random.Random(seed)
        base = random_premises(rng)

        def doubled(pm):
            alpha = None if pm.alpha is None else And(pm.alpha, pm.alpha)
            return dataclasses.replace(pm, alpha=alpha, betas=tuple(And(b, b) for b in pm.betas))

        formulas = [doubled(pm) if rng.random() < 0.5 else pm for pm in base.formulas]
        premises = AelPremises((*formulas, *map(doubled, base.formulas[:1])), base.vocab)
        worlds = enumerate_worlds(premises.vocab)
        got = {k.worlds for k in stable_expansions(premises)}
        assert got == brute_force_ael_last_classes(premises, worlds)
        masks = set(map(TruthTable(premises.vocab).mask, premises.guesses))
        assert len(premises.compiled[0]) == len(masks)

    def test_checker_agrees_with_oracle_on_every_candidate(self):
        rng = random.Random(4242)
        rejected = 0
        for _ in range(150):
            premises = random_premises(rng)
            ts, candidates = ael_candidates(premises, enumerate_worlds(premises.vocab))
            for classes in candidates:
                seq = PartitionSequence.of_classes(tuple(classes), premises.vocab, "autoepistemic")
                ok = _ael_sequence_ok(premises, classes, ts)
                assert (check_ael_sequence(premises, seq) == []) == ok, seq
                rejected += not ok
        assert rejected > 0

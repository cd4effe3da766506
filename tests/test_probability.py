"""Sample spaces, conditioning, thresholding, and the lottery scenario."""

import random
from fractions import Fraction

import pytest

from partseq import (
    FALSE,
    TRUE,
    BelowThresholdError,
    Const,
    Not,
    ResourceLimitError,
    SampleSpace,
    SemanticError,
    UndefinedConditionalError,
    Vocabulary,
    World,
    build_poss_sequence,
    cond_prob,
    condition,
    enumerate_threshold_orders,
    extend,
    lottery_space,
    parse_formula,
    persistent_prob,
    sequence_from_json,
    sequence_to_json,
    threshold,
    threshold_prob,
    validate_structure,
)
from partseq.kbformats import KbDocument, serialize_kb
from partseq.logic import TruthTable
from genkit import (
    direct_cond_prob,
    per_world_conditioning,
    per_world_step_ratio,
    random_formula,
    random_space,
    stepwise_threshold_accepts,
)

P, Q = Const("p"), Const("q")


class TestSampleSpace:
    def test_weights_must_total_one(self, pq):
        with pytest.raises(ValueError, match="total"):
            SampleSpace((World(pq, ["p"], Fraction(1, 2)),), pq)

    def test_duplicate_assignments_rejected(self, pq):
        w = World(pq, ["p"], Fraction(1, 2))
        with pytest.raises(ValueError, match="distinct"):
            SampleSpace((w, World(pq, ["p"], Fraction(1, 2))), pq)

    def test_float_noise_tolerated(self, pq):
        worlds = (
            World(pq, ["p"], 0.1 + 0.2),
            World(pq, [], 1 - (0.1 + 0.2)),
        )
        SampleSpace(worlds, pq)  # no complaint


class TestArgumentErrors:
    """Rejected arguments, each with the message it has always had."""

    def test_condition_needs_a_formula(self, weather_space):
        with pytest.raises(ValueError) as got:
            condition(weather_space, [])
        assert str(got.value) == "at least one condition formula is required"

    def test_possibility_sequence_is_not_extended(self, nested_kb):
        with pytest.raises(SemanticError) as got:
            extend(build_poss_sequence(nested_kb), P)
        assert str(got.value) == "cannot extend a possibility sequence by conditioning"

    @pytest.mark.parametrize("step", [-1, 3])
    def test_persistent_step_inside_the_sequence(self, weather_space, step):
        seq = condition(weather_space, [P, Q])
        with pytest.raises(ValueError) as got:
            persistent_prob(seq, P, step)
        assert str(got.value) == f"step {step} outside the sequence"


class TestConditioning:
    def test_two_step_split(self, weather_space, pq):
        seq = condition(
            weather_space, [parse_formula("p -> q", pq), parse_formula("p | q", pq)]
        )
        names = [frozenset(w.true_names for w in cls) for cls in seq.classes]
        assert names == [
            frozenset({frozenset({"p"})}),
            frozenset({frozenset()}),
            frozenset({frozenset({"p", "q"}), frozenset({"q"})}),
        ]

    def test_trivial_condition(self, weather_space):
        seq = condition(weather_space, [TRUE])
        assert seq.classes[0] == frozenset()
        assert seq.classes[1] == frozenset(weather_space.worlds)

    def test_single_condition(self, weather_space, pq):
        seq = condition(weather_space, [parse_formula("p -> q", pq)])
        assert [len(c) for c in seq.classes] == [1, 3]

    def test_structurally_valid(self, weather_space, pq):
        seq = condition(weather_space, [P, Q])
        assert validate_structure(seq, weather_space.worlds) == []


class TestCondProb:
    def test_weighted_fractions(self, weather_space, pq):
        seq = condition(
            weather_space, [parse_formula("p -> q", pq), parse_formula("p | q", pq)]
        )
        assert cond_prob(seq, P) == Fraction(2, 3)
        assert cond_prob(seq, Q) == 1

    def test_tautology_is_certain(self, weather_space):
        seq = condition(weather_space, [P])
        assert cond_prob(seq, TRUE) == 1

    def test_zero_mass_condition_undefined(self, weather_space):
        seq = condition(weather_space, [FALSE])
        with pytest.raises(UndefinedConditionalError):
            cond_prob(seq, P)

    def test_matches_direct_ratio_on_random_spaces(self):
        rng = random.Random(111213)
        for _ in range(200):
            space = random_space(rng)
            names = space.vocab.names
            conds = [
                random_formula(rng, names, rng.randint(0, 3))
                for _ in range(rng.randint(1, 3))
            ]
            psi = random_formula(rng, names, rng.randint(0, 3))
            expected = direct_cond_prob(space, conds, psi)
            seq = condition(space, conds)
            if expected is None:
                with pytest.raises(UndefinedConditionalError):
                    cond_prob(seq, psi)
            else:
                assert cond_prob(seq, psi) == expected


class TestIncrementalityAndPersistence:
    def test_extending_splits_last_class(self):
        rng = random.Random(141516)
        for _ in range(100):
            space = random_space(rng)
            names = space.vocab.names
            conds = [
                random_formula(rng, names, rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            extra = random_formula(rng, names, rng.randint(0, 2))
            assert extend(condition(space, conds), extra) == condition(
                space, conds + [extra]
            )

    def test_earlier_stages_recoverable(self):
        rng = random.Random(171819)
        for _ in range(100):
            space = random_space(rng)
            names = space.vocab.names
            conds = [
                random_formula(rng, names, rng.randint(0, 2))
                for _ in range(rng.randint(2, 4))
            ]
            psi = random_formula(rng, names, rng.randint(0, 2))
            seq = condition(space, conds)
            for k in range(1, len(conds)):
                expected = direct_cond_prob(space, conds[:k], psi)
                if expected is None:
                    with pytest.raises(UndefinedConditionalError):
                        persistent_prob(seq, psi, k)
                else:
                    assert persistent_prob(seq, psi, k) == expected


class TestThreshold:
    def test_lottery_acceptance_at_exact_boundary(self):
        space = lottery_space(100)
        conds = [parse_formula("~p1", space.vocab), parse_formula("~p2", space.vocab)]
        seq = threshold(space, Fraction(1, 99), conds)
        assert [len(c) for c in seq.classes] == [1, 1, 98]
        assert seq.kind == "threshold"

    def test_lottery_rejection_one_notch_tighter(self):
        space = lottery_space(100)
        conds = [parse_formula("~p1", space.vocab), parse_formula("~p2", space.vocab)]
        with pytest.raises(BelowThresholdError) as info:
            threshold(space, Fraction(1, 100), conds)
        assert info.value.step == 2
        assert info.value.ratio == Fraction(1, 99)
        assert "~p2" in info.value.formula

    def test_zero_eps_with_trivial_condition(self, weather_space):
        seq = threshold(weather_space, 0, [TRUE])
        assert seq.classes[0] == frozenset()

    def test_strict_mode_divides_by_whole_space(self):
        # with the whole space as denominator both lottery steps measure
        # 1/100, so the tighter epsilon also passes
        space = lottery_space(100)
        conds = [parse_formula("~p1", space.vocab), parse_formula("~p2", space.vocab)]
        seq = threshold(space, Fraction(1, 100), conds, strict=True)
        assert [len(c) for c in seq.classes] == [1, 1, 98]

    def test_acceptance_matches_stepwise_rule(self):
        rng = random.Random(212223)
        for _ in range(200):
            space = random_space(rng)
            names = space.vocab.names
            conds = [
                random_formula(rng, names, rng.randint(0, 2))
                for _ in range(rng.randint(1, 3))
            ]
            eps = Fraction(rng.randint(0, 4), 4)
            failing = stepwise_threshold_accepts(space, eps, conds)
            if failing is None:
                threshold(space, eps, conds)  # must be accepted
            else:
                with pytest.raises(BelowThresholdError) as info:
                    threshold(space, eps, conds)
                assert info.value.step == failing


def _random_lottery(rng: random.Random) -> SampleSpace:
    return lottery_space(rng.choice([1, 2, 3, 5, 12, 40]))


class TestPerWorldOracles:
    """The ordered peel against the per-world readings of conditioning and
    of each thresholding step, on random spaces and on lotteries. Beside a
    random epsilon, each run takes the greatest defined step ratio before
    any undefined one, which every such step meets exactly, and that ratio
    less 10^-12, which the first step of that ratio fails."""

    @pytest.mark.parametrize("draw", [random_space, _random_lottery], ids=["random", "lottery"])
    def test_classes_and_rejected_steps_match(self, draw):
        rng = random.Random(0x5EED)
        for _ in range(150):
            space = draw(rng)
            names = space.vocab.names
            conds = [
                random_formula(rng, names, rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))
            ]
            assert list(condition(space, conds).classes) == per_world_conditioning(space, conds)
            drawn = Fraction(rng.randint(0, 8), rng.choice([8, 16, 40]))
            for strict in (False, True):
                ratios = [per_world_step_ratio(space, conds, i, strict) for i in range(len(conds))]
                defined = ratios[: ratios.index(None)] if None in ratios else ratios
                edge = max(defined, default=Fraction(0))
                below = edge - Fraction(1, 10**12)
                for eps in (drawn, edge, below) if edge else (drawn, edge):
                    failing = next(
                        ((i + 1, r) for i, r in enumerate(ratios) if r is None or r > eps), None
                    )
                    if eps == below:
                        assert failing == (ratios.index(edge) + 1, edge)
                    if failing is None:
                        seq = threshold(space, eps, conds, strict=strict)
                        assert list(seq.classes) == per_world_conditioning(space, conds)
                    else:
                        with pytest.raises(BelowThresholdError) as info:
                            threshold(space, eps, conds, strict=strict)
                        assert (info.value.step, info.value.ratio) == failing


class TestThresholdProb:
    def test_lottery_values(self):
        space = lottery_space(100)
        conds = [parse_formula("~p1", space.vocab), parse_formula("~p2", space.vocab)]
        eps = Fraction(1, 99)
        assert threshold_prob(space, eps, conds, Const("p1")) == 0
        assert threshold_prob(space, eps, conds, Const("p2")) == 0
        for i in (3, 50, 100):
            assert threshold_prob(space, eps, conds, Const(f"p{i}")) == Fraction(1, 98)

    def test_conditioned_formula_is_certain(self, weather_space, pq):
        phi = parse_formula("p -> q", pq)
        assert threshold_prob(weather_space, Fraction(1, 2), [phi], phi) == 1


class TestEnumerateOrders:
    def test_lottery_both_orders_of_two(self):
        space = lottery_space(100)
        np1 = parse_formula("~p1", space.vocab)
        np2 = parse_formula("~p2", space.vocab)
        got = enumerate_threshold_orders(space, Fraction(1, 99), [np1, np2], maxlen=2)
        assert (np1, np2) in got and (np2, np1) in got
        assert len([o for o in got if len(o) == 2]) == 2

    def test_lottery_no_third_step(self):
        space = lottery_space(100)
        cands = [parse_formula(f"~p{i}", space.vocab) for i in (1, 2, 3)]
        got = enumerate_threshold_orders(space, Fraction(1, 99), cands, maxlen=3)
        assert [len(o) for o in got if len(o) == 3] == []
        assert len([o for o in got if len(o) == 2]) == 6

    def test_contradiction_never_accepted(self, weather_space):
        got = enumerate_threshold_orders(
            weather_space, Fraction(1, 2), [FALSE], maxlen=1
        )
        assert got == []

    def test_candidate_cap(self, weather_space):
        cands = [Const("p")] * 11
        with pytest.raises(ResourceLimitError):
            enumerate_threshold_orders(weather_space, 0, cands, maxlen=1)

    def test_negative_eps_refused(self, weather_space):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_threshold_orders(weather_space, Fraction(-1, 10), [P, Q], maxlen=2)

    def test_accepted_steps_build_no_mass(self, monkeypatch):
        """Threshold steps are decided in integer weights: neither an
        accepted threshold nor the order search asks the table for a mass."""
        space = lottery_space(40)
        cands = [Not(Const(f"p{i}")) for i in (1, 2, 3)]
        monkeypatch.setattr(TruthTable, "mass", lambda self, mask: pytest.fail("mass"))
        for strict in (False, True):
            assert len(threshold(space, Fraction(1, 38), cands, strict).classes) == 4
            assert len(enumerate_threshold_orders(space, Fraction(1, 38), cands, 3, strict)) == 15

    def test_equal_candidates_as_distinct_objects(self):
        """Candidates equal but not identical count as one formula: no
        order uses it twice, and the orders are the per-order oracle's,
        repeats included."""
        space = lottery_space(12)
        cands = [Not(Const("p1")), Not(Const("p1")), Not(Const("p2"))]
        assert cands[0] is not cands[1]
        for eps in (Fraction(1, 11), Fraction(1, 2)):
            for strict in (False, True):
                got = enumerate_threshold_orders(space, eps, cands, 3, strict)
                assert got == per_order_threshold(space, eps, cands, 3, strict)
                assert all(len(set(order)) == len(order) for order in got)
                assert (cands[0],) in got and (cands[0], cands[2]) in got

    def assert_matches_oracle(self, space, cands, steps):
        """The search's orders are those that ``threshold`` accepts from
        scratch, in the same depth-first order, at eps 0, 1/(n - t + 1)
        for n worlds and t steps, and 1/2, with both denominators."""
        n = len(space.worlds)
        for eps in (Fraction(0), Fraction(1, max(n - steps + 1, 1)), Fraction(1, 2)):
            for strict in (False, True):
                got = enumerate_threshold_orders(space, eps, cands, len(cands), strict)
                assert got == per_order_threshold(space, eps, cands, len(cands), strict)

    def test_matches_per_order_threshold_on_random_spaces(self):
        rng = random.Random(404142)
        for _ in range(80):
            space = random_space(rng)
            names = space.vocab.names
            cands = [random_formula(rng, names, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))]
            self.assert_matches_oracle(space, cands, rng.randint(1, len(cands)))

    def test_matches_per_order_threshold_on_lotteries(self):
        rng = random.Random(434445)
        for n in (1, 3, 8, 40):
            space = lottery_space(n)
            tickets = [Const(f"p{i}") for i in range(1, n + 1)]
            cands = [Not(t) for t in rng.sample(tickets, min(n, 4))] + [rng.choice(tickets)]
            for steps in (1, 2, len(cands)):
                self.assert_matches_oracle(space, cands, steps)


def per_order_threshold(space, eps, cands, maxlen, strict):
    """Every order of distinct candidates up to ``maxlen`` that ``threshold``
    accepts, each run from scratch, listed depth first without pruning."""
    found = []

    def walk(prefix):
        if len(prefix) >= maxlen:
            return
        for phi in cands:
            if phi not in prefix:
                try:
                    threshold(space, eps, prefix + (phi,), strict)
                    found.append(prefix + (phi,))
                except BelowThresholdError:
                    pass
                walk(prefix + (phi,))

    walk(())
    return found


class TestQueryBundle:
    """Conditions, a query formula and an optional epsilon, answered with
    the library's own steps, as ``prob query`` answers them."""

    def test_answer_with_threshold(self):
        space = lottery_space(100)
        conds = (parse_formula("~p1", space.vocab),)
        eps = Fraction(1, 99)
        assert threshold_prob(space, eps, conds, Const("p2")) == Fraction(1, 99)
        assert threshold(space, eps, conds).kind == "threshold"

    def test_answer_plain(self, weather_space, pq):
        seq = condition(weather_space, (parse_formula("p -> q", pq), parse_formula("p | q", pq)))
        assert cond_prob(seq, P) == Fraction(2, 3)
        assert seq.kind == "conditional"

    def test_rejects_predicate(self):
        from partseq import rejects

        space = lottery_space(100)
        seq = threshold(
            space,
            Fraction(1, 99),
            [parse_formula("~p1", space.vocab), parse_formula("~p2", space.vocab)],
        )
        assert rejects(seq, Const("p3"), Fraction(1, 98))
        assert not rejects(seq, Not(Const("p3")), Fraction(1, 98))
        # the same epsilon contract as threshold's
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            rejects(seq, Const("p3"), -1)


class TestLottery:
    def test_answers_published_shape(self):
        space = lottery_space(100)
        assert len(space.worlds) == 100
        assert all(w.weight == Fraction(1, 100) for w in space.worlds)
        assert all(len(w.true_names) == 1 for w in space.worlds)

    def test_single_ticket(self):
        space = lottery_space(1)
        assert space.worlds[0].weight == 1
        assert space.worlds[0].true_names == frozenset({"p1"})

    def test_three_tickets_unconditioned_chance(self):
        space = lottery_space(3)
        seq = condition(space, [TRUE])
        assert cond_prob(seq, Const("p1")) == Fraction(1, 3)

    def test_no_full_rejection_order_below_one(self):
        # accepting "every ticket loses" needs eps = 1: the final step
        # discards all the remaining mass, ratio exactly 1, so any eps
        # short of 1 refuses it, however close
        for n in (2, 3, 5):
            space = lottery_space(n)
            conds = [parse_formula(f"~p{i}", space.vocab) for i in range(1, n + 1)]
            for eps in (Fraction(99, 100), 1 - Fraction(1, 10**9)):
                with pytest.raises(BelowThresholdError):
                    threshold(space, eps, conds)
            threshold(space, 1, conds)  # the degenerate bar lets it through

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_same_space_as_its_worlds(self, n):
        space = lottery_space(n)
        vocab = Vocabulary(f"p{i}" for i in range(1, n + 1))
        listed = SampleSpace(tuple(World(vocab, [f"p{i}"], Fraction(1, n)) for i in range(1, n + 1)), vocab)
        assert space == listed and hash(space) == hash(listed) and repr(space) == repr(listed)
        assert space.worlds == listed.worlds and space.vocab == listed.vocab
        assert [w.weight for w in space.worlds] == [w.weight for w in listed.worlds]
        assert all(type(w.weight) is Fraction for w in space.worlds)
        assert serialize_kb(KbDocument("prob", vocab, space)) == serialize_kb(
            KbDocument("prob", vocab, listed)
        )

    def test_thresholding_a_lottery_builds_no_world(self, monkeypatch):
        made = []
        init, trusted = World.__init__, World._trusted.__func__

        def counted_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        def counted_trusted(cls, *args):
            made.append(1)
            return trusted(cls, *args)

        monkeypatch.setattr(World, "__init__", counted_init)
        monkeypatch.setattr(World, "_trusted", classmethod(counted_trusted))
        conds = [Not(Const(f"p{i}")) for i in (1, 2, 3)]
        space = lottery_space(2000)
        assert threshold_prob(space, Fraction(1, 1998), conds, Const("p9")) == Fraction(1, 1997)
        assert made == []
        assert len(space.worlds) == 2000 and len(made) == 2000  # the counting works

    def test_size_bounds(self):
        with pytest.raises(ResourceLimitError):
            lottery_space(0)
        with pytest.raises(ResourceLimitError):
            lottery_space(10**6 + 1)


def value_or_undefined(fn, *args):
    try:
        return fn(*args)
    except UndefinedConditionalError:
        return "undefined"


def assert_same_as_fresh(seq, queries):
    """``seq`` agrees with its JSON round trip, which lists its worlds in a
    table of its own, on classes, provenance and every probability."""
    fresh = sequence_from_json(sequence_to_json(seq))
    assert fresh.table is not seq.table
    assert fresh.classes == seq.classes and fresh.provenance == seq.provenance
    assert {w: w.weight for c in fresh.classes for w in c} == {
        w: w.weight for c in seq.classes for w in c
    }
    for psi in queries:
        assert value_or_undefined(cond_prob, fresh, psi) == value_or_undefined(cond_prob, seq, psi)
        for k in range(len(seq.classes)):
            assert value_or_undefined(persistent_prob, fresh, psi, k) == value_or_undefined(
                persistent_prob, seq, psi, k
            )


class TestSharedTable:
    """Sequences cut from a space's table answer as freshly listed ones do."""

    def test_random_spaces(self):
        rng = random.Random(242526)
        for _ in range(150):
            space = random_space(rng)
            names = space.vocab.names
            conds = [random_formula(rng, names, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
            queries = [random_formula(rng, names, rng.randint(0, 3)) for _ in range(3)]
            seq = condition(space, conds)
            assert seq.table is space.table
            assert_same_as_fresh(seq, queries)
            extra = extend(seq, random_formula(rng, names, rng.randint(0, 2)))
            assert extra.table is space.table
            assert_same_as_fresh(extra, queries)
            eps = Fraction(rng.randint(0, 4), 4)
            for strict in (False, True):
                try:
                    assert_same_as_fresh(threshold(space, eps, conds, strict), queries)
                except BelowThresholdError:
                    pass
            for order in enumerate_threshold_orders(space, eps, conds[:2], 2):
                assert_same_as_fresh(threshold(space, eps, order), queries)

    def test_lotteries(self):
        rng = random.Random(272829)
        for n in (1, 2, 5, 30, 100):
            space = lottery_space(n)
            tickets = [Const(f"p{i}") for i in range(1, n + 1)]
            queries = rng.sample(tickets, min(n, 3)) + [Not(tickets[0]), TRUE, FALSE]
            conds = [Not(t) for t in rng.sample(tickets, min(n, 3))]
            assert_same_as_fresh(condition(space, conds), queries)
            assert_same_as_fresh(extend(condition(space, conds), tickets[-1]), queries)
            eps = Fraction(1, max(n - 2, 1))
            for order in enumerate_threshold_orders(space, eps, conds, len(conds)):
                assert_same_as_fresh(threshold(space, eps, order), queries)

"""Sample spaces, conditioning, thresholding, and the lottery scenario."""

import random
from fractions import Fraction

import pytest

from partseq import (
    FALSE,
    TRUE,
    BelowThresholdError,
    ConditioningQuery,
    Const,
    Not,
    ResourceLimitError,
    SampleSpace,
    UndefinedConditionalError,
    World,
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
from genkit import (
    direct_cond_prob,
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

    def test_query_epsilon_range(self):
        with pytest.raises(ValueError):
            ConditioningQuery(conditions=(P,), query=Q, epsilon=Fraction(1))


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
    def test_answer_with_threshold(self):
        from partseq import answer

        space = lottery_space(100)
        query = ConditioningQuery(
            conditions=(parse_formula("~p1", space.vocab),),
            query=Const("p2"),
            epsilon=Fraction(1, 99),
        )
        result = answer(space, query)
        assert result.value == Fraction(1, 99)
        assert result.sequence.kind == "threshold"

    def test_answer_plain(self, weather_space, pq):
        from partseq import answer

        query = ConditioningQuery(
            conditions=(parse_formula("p -> q", pq), parse_formula("p | q", pq)),
            query=P,
        )
        result = answer(weather_space, query)
        assert result.value == Fraction(2, 3)
        assert result.sequence.kind == "conditional"

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

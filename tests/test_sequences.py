"""Sequence structure, isomorphism, preference chains, serialisation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partseq import (
    BelowThresholdError,
    PartitionSequence,
    SemanticError,
    Vocabulary,
    World,
    build_ael_sequences,
    build_default_sequences,
    build_poss_sequence,
    condition,
    enumerate_worlds,
    extend,
    isomorphic,
    preference_view,
    sequence_from_json,
    sequence_to_json,
    threshold,
    validate_structure,
)
from partseq.logic import TruthTable
from partseq.sequences import class_masks, render_json
from genkit import (
    per_world_structure,
    random_default_theory,
    random_formula,
    random_possibilistic_kb,
    random_premises,
    random_space,
)


def world_of(vocab, trues, weight=1):
    return World(vocab, trues, weight)


@pytest.fixture
def worlds(pq):
    return enumerate_worlds(pq)


def seq_of(vocab, classes, kind="default"):
    return PartitionSequence.of_classes(
        classes=tuple(frozenset(c) for c in classes), vocab=vocab, kind=kind
    )


class TestStructure:
    def test_leading_empty_class_allowed(self, pq, worlds):
        seq = seq_of(pq, [set(), set(worlds)])
        assert validate_structure(seq, worlds) == []

    def test_overlap_reported(self):
        vocab = Vocabulary(["p"])
        w0, w1 = enumerate_worlds(vocab)
        seq = seq_of(vocab, [{w0}, {w0, w1}])
        problems = validate_structure(seq, [w0, w1])
        assert any(p.clause == "disjointness" for p in problems)

    def test_published_shape_accepted(self, pq, worlds):
        by_bits = {w.bits(): w for w in worlds}
        w11 = {by_bits[(1, 1)], by_bits[(1, 0)]}
        w12 = {by_bits[(0, 1)], by_bits[(0, 0)]}
        seq = seq_of(pq, [set(), w11, w12])
        assert validate_structure(seq, worlds) == []

    def test_missing_world_reported(self, pq, worlds):
        seq = seq_of(pq, [set(), set(list(worlds)[:3])])
        problems = validate_structure(seq, worlds)
        assert any(p.clause == "coverage" for p in problems)

    def test_single_class_reported(self, pq, worlds):
        seq = seq_of(pq, [set(worlds)])
        problems = validate_structure(seq, worlds)
        assert any(p.clause == "length" for p in problems)


def corrupted(rng, vocab, worlds):
    """A random weighted partition of ``worlds`` into one to four classes,
    then a random mix of faults: worlds copied into other classes (one of
    them into three), worlds dropped, worlds of a foreign vocabulary, all
    classes merged into one, or the whole sequence over a foreign
    vocabulary."""
    weighted = lambda w: World(w.vocab, w.true_names, Fraction(rng.randint(0, 4), rng.randint(1, 3)))
    classes = [[] for _ in range(rng.randint(1, 4))]
    for w in worlds:
        rng.choice(classes).append(weighted(w))
    faults = {f for f in ("copy", "triple", "drop", "alien", "merge", "foreign") if rng.random() < 0.3}
    if "copy" in faults:
        for _ in range(rng.randint(1, 3)):
            rng.choice(classes).append(weighted(rng.choice(worlds)))
    if "triple" in faults and len(classes) >= 3:
        w = rng.choice(worlds)
        for cls in rng.sample(classes, 3):
            cls.append(weighted(w))
    if "drop" in faults:
        for cls in classes:
            if cls and rng.random() < 0.5:
                cls.pop(rng.randrange(len(cls)))
    if "alien" in faults:
        # two names more than the foreign vocabulary below, so that no alien
        # world ties with a foreign one in the oracle's sort by truth values
        other = Vocabulary(vocab.names + ("z", "x"))
        for _ in range(rng.randint(1, 3)):
            alien = World(other, rng.sample(other.names, rng.randint(0, len(other))))
            rng.choice(classes).append(weighted(alien))
    if "merge" in faults:
        classes = [[w for cls in classes for w in cls]]
    if "foreign" in faults:
        home, vocab = vocab, Vocabulary(tuple(reversed(vocab.names)) + ("y",))
        moved = lambda w: World(vocab, w.true_names, w.weight) if w.vocab == home else w
        classes = [list(map(moved, cls)) for cls in classes]
    # a frozenset keeps the first of equal worlds, so the duplicates within a
    # class that the faults made drop out as a class becomes a set
    return PartitionSequence.of_classes(tuple(map(frozenset, classes)), vocab, "default")


class TestMaskStructure:
    """The mask structure check reports what the per-world oracle reports."""

    def test_matches_per_world_oracle(self):
        rng = random.Random(61)
        for size in range(4):
            vocab = Vocabulary(("p", "q", "r")[:size])
            worlds = enumerate_worlds(vocab)
            for _ in range(300):
                seq = corrupted(rng, vocab, worlds)
                expected = per_world_structure(seq, worlds)
                assert validate_structure(seq, worlds) == expected
                listed = [World(vocab, w.true_names, rng.randint(1, 3)) for w in worlds]
                rng.shuffle(listed)
                assert validate_structure(seq, listed) == per_world_structure(seq, listed)
                table = TruthTable(vocab)
                masks, problems = class_masks(seq, "default", table)
                assert problems == expected
                if not expected:
                    assert masks == [table.mask_of(cls) for cls in seq.classes]

    def test_world_in_three_classes(self, pq, worlds):
        w = worlds[0]
        seq = seq_of(pq, [{w}, {w, worlds[1]}, {w, *worlds[2:]}])
        problems = validate_structure(seq, worlds)
        assert [str(p) for p in problems] == [
            "disjointness [class 1]: world {~p, ~q} appears in classes 0 and 1",
            "disjointness [class 2]: world {~p, ~q} appears in classes 0 and 2",
        ]
        assert problems == per_world_structure(seq, worlds)

    def test_foreign_vocabulary(self, pq, worlds):
        other = Vocabulary(["q", "p"])
        seq = seq_of(other, [set(), set(enumerate_worlds(other))])
        problems = class_masks(seq, "default", TruthTable(pq))[1]
        assert [p.clause for p in problems] == ["coverage"] * 8
        assert problems == per_world_structure(seq, worlds)


class TestIsomorphic:
    def test_same_last_class(self, pq, worlds):
        by_bits = {w.bits(): w for w in worlds}
        top = {by_bits[(1, 1)]}
        rest = set(worlds) - top
        a = seq_of(pq, [set(), rest, top])
        b = seq_of(pq, [set(), set(list(rest)[:1]), rest - set(list(rest)[:1]), top])
        assert isomorphic(a, b)

    def test_different_last_class(self, pq, worlds):
        by_bits = {w.bits(): w for w in worlds}
        a = seq_of(pq, [set(), set(worlds) - {by_bits[(1, 1)]}, {by_bits[(1, 1)]}])
        b = seq_of(pq, [set(), {by_bits[(1, 1)]}, set(worlds) - {by_bits[(1, 1)]}])
        assert not isomorphic(a, b)

    def test_reflexive(self, pq, worlds):
        seq = seq_of(pq, [set(), set(worlds)])
        assert isomorphic(seq, seq)

    def test_kind_mismatch_rejected(self, pq, worlds):
        a = seq_of(pq, [set(), set(worlds)], kind="default")
        b = seq_of(pq, [set(), set(worlds)], kind="conditional")
        with pytest.raises(SemanticError):
            isomorphic(a, b)

    def test_vocab_mismatch_rejected(self, pq):
        other = Vocabulary(["p", "r"])
        a = seq_of(pq, [set(), set(enumerate_worlds(pq))])
        b = seq_of(other, [set(), set(enumerate_worlds(other))])
        with pytest.raises(SemanticError):
            isomorphic(a, b)

    @given(st.data())
    def test_equivalence_relation(self, data):
        vocab = Vocabulary(["p", "q"])
        worlds = enumerate_worlds(vocab)
        seqs = []
        for _ in range(3):
            k = data.draw(st.integers(2, 4))
            assignment = data.draw(
                st.lists(st.integers(0, k - 1), min_size=4, max_size=4)
            )
            classes = [set() for _ in range(k)]
            for w, c in zip(worlds, assignment):
                classes[c].add(w)
            seqs.append(seq_of(vocab, classes))
        a, b, c = seqs
        assert isomorphic(a, a)
        assert isomorphic(a, b) == isomorphic(b, a)
        if isomorphic(a, b) and isomorphic(b, c):
            assert isomorphic(a, c)


class TestPreferenceView:
    def test_two_singletons(self):
        vocab = Vocabulary(["p"])
        w0, w1 = enumerate_worlds(vocab)
        chain = preference_view(seq_of(vocab, [{w0}, {w1}]))
        assert chain.models == (frozenset({w0, w1}), frozenset({w1}))

    def test_three_class_unfold(self, pq, worlds):
        by_bits = {w.bits(): w for w in worlds}
        w11 = frozenset({by_bits[(1, 1)], by_bits[(1, 0)]})
        w12 = frozenset({by_bits[(0, 1)], by_bits[(0, 0)]})
        chain = preference_view(seq_of(pq, [set(), w11, w12]))
        assert chain.models[0] == frozenset(worlds)
        assert chain.models[1] == w11 | w12
        assert chain.models[2] == w12

    def test_degenerate_leading_empty(self, pq, worlds):
        chain = preference_view(seq_of(pq, [set(), set(worlds)]))
        assert chain.models[0] == chain.models[1] == frozenset(worlds)

    def test_ends_match_union_and_last(self, pq, worlds):
        seq = seq_of(pq, [set(list(worlds)[:1]), set(list(worlds)[1:3]), set(list(worlds)[3:])])
        chain = preference_view(seq)
        assert chain.models[0] == seq.all_worlds
        assert chain.models[-1] == seq.last_class


class TestSerialization:
    def test_round_trip_weighted(self, pq):
        classes = (
            frozenset({world_of(pq, ["p", "q"], Fraction("0.3"))}),
            frozenset({world_of(pq, ["p"], Fraction("0.7"))}),
            frozenset(
                {
                    world_of(pq, ["q"], Fraction(1, 3)),
                    world_of(pq, [], Fraction("0.15")),
                }
            ),
        )
        seq = PartitionSequence.of_classes(classes, pq, "possibility", ("a", "b", ""))
        back = sequence_from_json(sequence_to_json(seq))
        assert back == seq
        weights = {
            w.true_names: w.weight for cls in back.classes for w in cls
        }
        assert weights[frozenset({"p", "q"})] == Fraction(3, 10)
        assert weights[frozenset({"q"})] == Fraction(1, 3)

    def test_decimal_weights_stay_numbers(self, pq):
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset({world_of(pq, ["p"], Fraction("0.3"))}),),
            pq,
            "conditional",
        )
        text = sequence_to_json(seq)
        assert '"weight": 0.3' in text
        # only false assignments elsewhere; the odd rational becomes a string
        seq2 = PartitionSequence.of_classes(
            (frozenset(), frozenset({world_of(pq, ["p"], Fraction(1, 3))}),),
            pq,
            "conditional",
        )
        assert '"weight": "1/3"' in sequence_to_json(seq2)

    def test_empty_classes_preserved(self, pq, worlds=None):
        worlds = enumerate_worlds(pq)
        seq = PartitionSequence.of_classes(
            (frozenset(), frozenset(worlds), frozenset()), pq, "default", ("", "r1", "")
        )
        back = sequence_from_json(sequence_to_json(seq))
        assert len(back.classes) == 3
        assert back.provenance == ("", "r1", "")

    def test_deterministic_bytes(self, pq):
        worlds = enumerate_worlds(pq)
        seq = PartitionSequence.of_classes((frozenset(), frozenset(worlds)), pq, "default")
        assert sequence_to_json(seq) == sequence_to_json(seq)

    def test_provenance_length_enforced(self, pq):
        with pytest.raises(ValueError):
            PartitionSequence.of_classes(
                (frozenset(), frozenset()), pq, "default", provenance=("x",)
            )

    def test_unknown_kind_rejected(self, pq):
        with pytest.raises(ValueError):
            PartitionSequence.of_classes((frozenset(),), pq, "bogus")

    def test_render_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            render_json(object())


def built(rng) -> list[PartitionSequence]:
    """Sequences from each builder, and from conditioning, extending and
    thresholding, on random bases."""
    space = random_space(rng)
    conds = [random_formula(rng, space.vocab.names, 2) for _ in range(2)]
    seqs = build_default_sequences(random_default_theory(rng))
    seqs += build_ael_sequences(random_premises(rng))
    poss = build_poss_sequence(random_possibilistic_kb(rng))
    seqs += [poss] if isinstance(poss, PartitionSequence) else []
    seqs += [condition(space, conds), extend(condition(space, conds), conds[0])]
    try:
        seqs.append(threshold(space, 1, conds))
    except BelowThresholdError:  # no mass left at some step
        pass
    return seqs


class TestClassView:
    """A sequence is its table and class masks; its World classes are
    built on first read."""

    def test_classes_built_when_read(self):
        rng = random.Random(454647)
        for _ in range(60):
            for seq in built(rng):
                assert "classes" not in seq.__dict__
                classes = seq.classes
                assert seq.classes is classes
                for i, mask in enumerate(seq.masks):
                    assert classes[i] == seq.table.worlds(mask)


class TestValueSemantics:
    """Sequences compare by kind, vocabulary, provenance and classes."""

    def test_round_trip_is_equal_with_equal_hash(self):
        rng = random.Random(484950)
        for _ in range(60):
            seqs = built(rng)
            back = [sequence_from_json(sequence_to_json(seq)) for seq in seqs]
            for seq, again in zip(seqs, back):
                assert seq == again and hash(seq) == hash(again)
            assert set(seqs) == set(back)
            assert len(set(seqs)) == len(set(map(sequence_to_json, seqs)))

    def test_kind_provenance_or_one_class_tell_apart(self):
        rng = random.Random(515253)
        for _ in range(60):
            for seq in built(rng):
                table, masks, kind, labels = seq.table, seq.masks, seq.kind, seq.provenance
                other = "default" if kind == "possibility" else "possibility"
                assert seq != PartitionSequence(table, masks, other, labels)
                relabelled = (*labels[:-1], labels[-1] + "x")
                assert seq != PartitionSequence(table, masks, kind, relabelled)
                classes = list(seq.classes)
                i = next(i for i, cls in enumerate(classes) if cls)
                classes[i] = classes[i] - {min(classes[i], key=World.bits)}
                assert seq != PartitionSequence.of_classes(classes, seq.vocab, kind, labels)
                reweighed = [[w.reweighted(2 * w.weight + 1) for w in c] for c in seq.classes]
                assert seq == PartitionSequence.of_classes(reweighed, seq.vocab, kind, labels)

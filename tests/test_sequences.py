"""Sequence structure, isomorphism, preference chains, serialisation."""

import contextlib
import copy
import io
import json
import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partseq import (
    BelowThresholdError,
    PartitionSequence,
    PossibilisticKB,
    SemanticError,
    Vocabulary,
    World,
    build_ael_sequences,
    build_default_sequences,
    build_poss_sequence,
    check_ael_sequence,
    check_default_sequence,
    check_poss_sequence,
    condition,
    enumerate_worlds,
    extend,
    isomorphic,
    lottery_space,
    preference_view,
    sequence_from_json,
    sequence_to_json,
    threshold,
    validate_structure,
)
from partseq import autoepistemic, cli, defaults, logic, sequences
from partseq.cli import main
from partseq.defaults import DefaultRule, DefaultTheory
from partseq.kbformats import KbDocument, parse_kb, serialize_kb
from partseq.logic import TRUE, Const, Not, TruthTable
from partseq.sequences import (
    KINDS,
    class_masks,
    render_json,
    sequence_from_obj,
    sequence_to_obj,
    table_rows,
    world_rows,
    world_texts,
    world_to_obj,
)
from genkit import (
    per_world_sequence_from_obj,
    per_world_structure,
    random_default_theory,
    random_formula,
    random_possibilistic_kb,
    random_premises,
    random_space,
    random_vocab,
    world_text,
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
                if seq.vocab != vocab:  # over another vocabulary: one violation alone
                    assert [p.clause for p in problems] == ["vocab"] and masks == []
                    continue
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

    def test_dense_masks_match_their_json_round_trip(self):
        # a built sequence keeps the dense table its checker compiles to, so
        # its masks are read as they are; the round trip lists its worlds
        rng = random.Random(8128)
        found = set()
        for _ in range(200):
            theory, premises = random_default_theory(rng), random_premises(rng)
            for kb, check, seqs in (
                (theory, check_default_sequence, build_default_sequences(theory)),
                (premises, check_ael_sequence, build_ael_sequences(premises)),
            ):
                for seq in seqs:
                    masks = list(seq.masks)
                    i, j = rng.randrange(len(masks)), rng.randrange(len(masks))
                    masks[i] |= rng.getrandbits(seq.table.size)
                    masks[j] &= rng.getrandbits(seq.table.size)
                    faulty = PartitionSequence(seq.table, masks, seq.kind, seq.provenance)
                    back = sequence_from_json(sequence_to_json(faulty))
                    for strict in (False, True):
                        problems = check(kb, faulty, strict=strict)
                        assert problems == check(kb, back, strict=strict)
                        found |= {p.clause for p in problems}
        assert {"disjointness", "coverage", "condition 2"} <= found

    def test_possibility_masks_match_their_json_round_trip(self, monkeypatch):
        # a built possibility sequence, and its JSON round trip, is on the
        # dense table with weights, so its masks are read as they are: no
        # world is looked up
        rng = random.Random(4096)
        pairs, found = [], set()
        while len(pairs) < 150:
            kb = random_possibilistic_kb(rng)
            seq = build_poss_sequence(kb)
            if not isinstance(seq, PartitionSequence):
                continue
            assert seq.table.dense and seq.table.shares is not None
            masks = list(seq.masks)
            i, j = rng.randrange(len(masks)), rng.randrange(len(masks))
            masks[i] |= rng.getrandbits(seq.table.size)
            masks[j] &= rng.getrandbits(seq.table.size)
            faulty = PartitionSequence(seq.table, masks, seq.kind, seq.provenance)
            back = sequence_from_json(sequence_to_json(faulty))
            pairs.append((kb, seq, faulty, back))
        monkeypatch.setattr(TruthTable, "index", lambda self, w: pytest.fail("world looked up"))
        for kb, seq, faulty, back in pairs:
            assert check_poss_sequence(kb, seq) == []
            problems = check_poss_sequence(kb, faulty)
            assert problems == check_poss_sequence(kb, back)
            found |= {p.clause for p in problems}
        assert {"disjointness", "coverage", "condition 1", "condition 2"} <= found

    def test_dense_masks_over_another_vocabulary_are_looked_up(self, pq, worlds):
        # bit i of the dense table of (q, p) is not world i of (p, q): the
        # structure check looks each world up, and a checker refuses the
        # vocabulary with one violation
        qp = Vocabulary(["q", "p"])
        theory = DefaultTheory(rules=(), facts=(Const("p"),), vocab=pq)
        seq = build_default_sequences(DefaultTheory(rules=(), facts=(Const("p"),), vocab=qp))[0]
        assert seq.table.dense
        assert [p.clause for p in validate_structure(seq, worlds)] == ["coverage"] * 8
        problems = check_default_sequence(theory, seq)
        assert [str(p) for p in problems] == ["vocab: the sequence is over [q, p], expected [p, q]"]
        back = sequence_from_json(sequence_to_json(seq))
        assert problems == check_default_sequence(theory, back)

    def test_foreign_vocabulary(self, pq, worlds):
        other = Vocabulary(["q", "p"])
        seq = seq_of(other, [set(), set(enumerate_worlds(other))])
        masks, problems = class_masks(seq, "default", TruthTable(pq))
        assert masks == [] and [str(p) for p in problems] == [
            "vocab: the sequence is over [q, p], expected [p, q]"
        ]
        problems = validate_structure(seq, worlds)
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

    def test_render_json_bytes(self):
        # read off the renderer before dict keys were encoded once per call
        envelope = {
            "command": "demo",
            "inputs": {"kb": 'a"b\\c', "tab\tkey": ["p", "q & r"], "caf\u00e9": None},
            "result": {
                "ok": True,
                "empty": {},
                "none": [],
                "weights": [Fraction(3, 10), Fraction(1, 3), 2, False],
                "worlds": [
                    {"assign": {"p": 1, "tab\tkey": 0}, "weight": Fraction(1, 8)},
                    {"assign": {"p": 0, "tab\tkey": 1}, "weight": Fraction(7, 8)},
                    [],
                ],
            },
        }
        assert render_json(envelope) == RENDERED


RENDERED = r"""{
  "command": "demo",
  "inputs": {
    "kb": "a\"b\\c",
    "tab\tkey": [
      "p",
      "q & r"
    ],
    "caf\u00e9": null
  },
  "result": {
    "ok": true,
    "empty": {},
    "none": [],
    "weights": [
      0.3,
      "1/3",
      2,
      false
    ],
    "worlds": [
      {
        "assign": {
          "p": 1,
          "tab\tkey": 0
        },
        "weight": 0.125
      },
      {
        "assign": {
          "p": 0,
          "tab\tkey": 1
        },
        "weight": 0.875
      },
      []
    ]
  }
}
"""


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


class TestMaskWriter:
    """``render_json`` writes a sequence from its table and masks, and
    the bytes are those of its dict view, ``sequence_to_obj``; so are
    the world rows of its preference chain, of kernels and of world
    lists those of ``world_to_obj`` of each world, and their text is the
    text oracle's."""

    def same(self, seq) -> str:
        text = render_json(sequence_to_obj(seq))
        assert render_json(seq) == text == sequence_to_json(seq)
        envelope = {"result": {"ok": True}, "sequences": [seq, seq], "empty": []}
        expected = dict(envelope, sequences=[sequence_to_obj(seq)] * 2)
        assert render_json(envelope) == render_json(expected)
        for mask in preference_view(seq).masks:
            self.same_rows(seq.table, mask)
        return text

    @staticmethod
    def same_rows(table, mask, worlds=None):
        """The rows of ``mask`` in ``table``, or of the whole table in its
        order when ``worlds`` lists it, against ``world_to_obj``."""
        if worlds is None:
            rows = world_rows(table, mask)
            worlds = sorted(table.worlds(mask), key=World.bits)
        else:
            rows = table_rows(table, mask)
        objs = [world_to_obj(w) for w in worlds]
        assert render_json({"result": [rows]}) == render_json({"result": [objs]})
        assert list(world_texts(rows)) == list(map(world_text, worlds))

    def test_kernels_and_world_lists(self):
        rng = random.Random(1414)
        for _ in range(80):
            for search, make in (
                (defaults._search, random_default_theory),
                (autoepistemic._search, random_premises),
            ):
                base = make(rng)
                table, found = search(base)
                for mask in found:
                    self.same_rows(table, mask)
                self.same_rows(table, table.full, enumerate_worlds(base.vocab))
            space = random_space(rng)
            self.same_rows(space.table, space.table.full, space.worlds)
        space = lottery_space(30)
        self.same_rows(space.table, space.table.full, space.worlds)

    def test_corrupted_listed_tables(self):
        # equal worlds listed twice in a class, worlds in several classes
        rng = random.Random(1732)
        written = 0
        while written < 150:
            vocab = random_vocab(rng)
            seq = corrupted(rng, vocab, enumerate_worlds(vocab))
            # worlds of another vocabulary have no row in this one
            if all(w.vocab == seq.vocab for w in seq.table.world_list(seq.table.full)):
                self.same(seq)
                written += 1

    def test_built_sequences_of_every_kind(self):
        rng = random.Random(2718)
        kinds = set()
        for _ in range(150):
            for seq in built(rng):
                self.same(seq)
                kinds.add(seq.kind)
        assert kinds == set(KINDS)

    @pytest.mark.parametrize("n", [3, 8, 300])
    def test_lotteries_with_empty_classes(self, n):
        space = lottery_space(n)
        # the second ~p1 peels nothing, so class 1 is empty
        conds = [Not(Const("p1")), Not(Const("p1")), Not(Const("p2"))]
        for seq in (condition(space, conds), threshold(space, Fraction(1, 2), conds)):
            assert not seq.masks[1]
            text = self.same(seq)
            assert {3: '"weight": "1/3"', 8: '"weight": 0.125', 300: '"weight": "1/300"'}[n] in text

    def test_empty_vocabulary(self):
        empty = Vocabulary([])
        dense = PartitionSequence(TruthTable(empty), [0, 1], "default")
        classes = [[], [World(empty, [], Fraction(1, 3))]]
        listed = PartitionSequence.of_classes(classes, empty, "threshold")
        for seq in (dense, listed):
            assert '"assign": {}' in self.same(seq)

    def test_sequences_sharing_classes(self):
        """Each class of a document is rendered once and appended where it
        repeats; the bytes stay those of the dict views, at every indent,
        and over two vocabularies that give the same masks."""
        seqs = []
        for prefix in ("c", "d"):
            vocab = Vocabulary([f"{prefix}{i}" for i in range(5)])
            rules = tuple(
                DefaultRule(f"r{i}", TRUE, (Const(name),), Const(name))
                for i, name in enumerate(vocab.names[:4])
            )
            seqs += build_default_sequences(DefaultTheory(rules=rules, facts=(), vocab=vocab))
        space = lottery_space(6)
        conds = [Not(Const("p1")), Not(Const("p2"))]
        seqs += [condition(space, conds), condition(space, conds[:1])]
        assert len(seqs) == 2 * 24 + 2
        envelope = {"count": len(seqs), "sequences": seqs, "again": {"nested": [seqs[:3], seqs[-2:]]}}
        views = [sequence_to_obj(seq) for seq in seqs]
        expected = dict(envelope, sequences=views, again={"nested": [views[:3], views[-2:]]})
        assert render_json(envelope) == render_json(expected)

    def test_equal_worlds_in_one_class_are_written_once(self, pq):
        # as in the class's frozenset, the first listed is the one kept
        first, again = World(pq, ["p"], Fraction(1, 4)), World(pq, ["p"], Fraction(3, 4))
        seq = PartitionSequence.of_classes([[], [first, again]], pq, "conditional")
        assert '"weight": 0.25' in self.same(seq)


def unit_documents(rng):
    """JSON documents of built default and belief sequences, with their
    knowledge base and checker, copies in which one world is also in
    another class (or twice in its own), dropped, or moved to another
    class, and now and then a copy with every weight left out."""
    for kb, check, seqs in (
        (t := random_default_theory(rng), check_default_sequence, build_default_sequences(t)),
        (b := random_premises(rng), check_ael_sequence, build_ael_sequences(b)),
    ):
        for seq in seqs:
            doc = json.loads(sequence_to_json(seq), parse_float=Fraction)
            classes = doc["classes"]
            i = rng.choice([k for k, cls in enumerate(classes) if cls])
            w = rng.choice(classes[i])
            j = rng.randrange(len(classes))
            dropped = [[v for v in cls if v is not w] for cls in classes]
            yield kb, check, doc
            def plus(base, at):
                return dict(doc, classes=[c + [w] * (k == at) for k, c in enumerate(base)])

            yield kb, check, plus(classes, j)
            yield kb, check, plus(classes, i)
            yield kb, check, dict(doc, classes=dropped)
            yield kb, check, plus(dropped, j)
            if rng.random() < 0.2:
                unweighted = [[{"assign": v["assign"]} for v in cls] for cls in classes]
                yield kb, check, dict(doc, classes=unweighted)


class TestUnitReader:
    """A document whose weights are all absent or the integer 1 is read
    onto the dense table of its vocabulary, and so is one whose weights
    are written as the string "1"; both readings agree with the listed
    reading of the same worlds."""

    @staticmethod
    def ones(doc):
        classes = [[dict(w, weight="1") for w in cls] for cls in doc["classes"]]
        return dict(doc, classes=classes)

    def test_agrees_with_the_listed_reading(self, monkeypatch):
        rng = random.Random(1618)
        clauses, refused = set(), 0
        for _ in range(120):
            for kb, check, doc in unit_documents(rng):
                try:
                    dense = sequence_from_obj(doc)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        sequence_from_obj(self.ones(doc))
                    refused += 1
                    continue
                ones = sequence_from_obj(self.ones(doc))
                vocab = Vocabulary(doc["vocab"])
                worlds = [
                    [World(vocab, [n for n in vocab.names if w["assign"][n]]) for w in cls]
                    for cls in doc["classes"]
                ]
                listed = PartitionSequence.of_classes(
                    worlds, vocab, doc["kind"], doc["provenance"]
                )
                assert dense.table.dense and ones.table.dense and not listed.table.dense
                assert dense == ones == listed and hash(dense) == hash(listed)
                for strict in (False, True):
                    problems = check(kb, dense, strict=strict)
                    assert problems == check(kb, ones, strict=strict)
                    assert problems == check(kb, listed, strict=strict)
                    clauses |= {p.clause for p in problems}
                assert render_json(dense) == render_json(ones) == render_json(listed)
        assert refused and {"disjointness", "coverage", "condition 2", "condition 3"} <= clauses

    def test_same_explain_text_and_json(self, capsys, tmp_path):
        rng = random.Random(3141)
        shown = 0
        while shown < 60:
            for _, _, doc in unit_documents(rng):
                path = tmp_path / "seq.json"
                for flags in ([], ["--json"]):
                    said = []
                    for text in (json.dumps(doc, default=str), json.dumps(self.ones(doc))):
                        path.write_text(text)
                        code = main([*flags, "explain", str(path)])
                        said.append((code, *capsys.readouterr()))
                    assert said[0] == said[1]
                shown += 1

    def test_clean_check_builds_no_world(self, monkeypatch, tmp_path, capsys):
        """Nor does the CLI's text of the sequences it builds, nor its
        explanation of a dense sequence, in text or JSON."""

        def kept(function, into):
            return lambda *args: into.append(function(*args)) or into[-1]

        read, made = [], []
        monkeypatch.setattr(cli, "sequence_from_json", kept(sequence_from_json, read))
        build = kept(build_default_sequences, made)
        monkeypatch.setitem(cli._BUILDERS, "default", (build, cli._BUILDERS["default"][1]))
        kb, path = tmp_path / "kb.dl", tmp_path / "seq.json"
        rng = random.Random(2024)
        checked = 0
        while checked < 40:
            theory = random_default_theory(rng)
            kb.write_text(serialize_kb(KbDocument("default", theory.vocab, theory)))
            main(["default", "sequences", str(kb)])
            assert not any(seq.table._worlds for seq in made[-1])
            for seq in build_default_sequences(theory):
                back = sequence_from_json(sequence_to_json(seq))
                assert check_default_sequence(theory, back) == []
                assert not back.table._worlds
                path.write_text(sequence_to_json(seq))
                for flags in ([], ["--json"]):
                    assert main([*flags, "explain", str(path)]) == 0
                    assert read[-1].table.dense and not read[-1].table._worlds
                checked += 1
        capsys.readouterr()

    @pytest.mark.parametrize("size, dense", [(20, True), (21, False)])
    def test_dense_up_to_the_world_cap(self, size, dense):
        names = [f"c{i}" for i in range(size)]
        worlds = [{"assign": dict.fromkeys(names, bit)} for bit in (0, 1)]
        doc = {"kind": "default", "vocab": names, "classes": [worlds[:1], worlds[1:]]}
        seq = sequence_from_obj(doc)
        assert seq.table.dense == dense
        assert seq.last_class == {World(Vocabulary(names), names)}


@st.composite
def weighted_sequences(draw):
    """A sequence over 0 to 12 constants, listed class by class, whose
    worlds are drawn from a small pool so that some repeat across
    classes, now and then at another weight than before."""
    n = draw(st.integers(0, 12))
    vocab = Vocabulary([f"c{i}" for i in range(n)])
    weights = st.fractions(0, 3, max_denominator=12)
    pool = draw(
        st.lists(
            st.tuples(st.integers(0, (1 << n) - 1), weights),
            min_size=1,
            max_size=8,
            unique_by=lambda drawn: drawn[0],
        )
    )
    classes = []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique_by=lambda d: d[0])
        )
        classes.append(
            [
                World(
                    vocab,
                    [c for k, c in enumerate(vocab.names) if i >> (n - 1 - k) & 1],
                    draw(weights) if draw(st.integers(0, 7)) == 0 else weight,
                )
                for i, weight in chosen
            ]
        )
    return PartitionSequence.of_classes(classes, vocab, draw(st.sampled_from(KINDS)))


class TestWeightedReader:
    """A document over at most 20 constants that gives each world it lists
    one weight is read onto the dense table, with its weights; one that
    gives a world two weights keeps a table that lists its worlds."""

    @settings(max_examples=80, deadline=None)
    @given(weighted_sequences())
    def test_reads_what_the_listed_sequence_wrote(self, seq):
        text = render_json(seq)
        back = sequence_from_json(text)
        assert back == seq and render_json(back) == text
        for own, mask in zip(seq.masks, back.masks):
            assert back.table.mass(mask) == seq.table.mass(own)
        weight_of = {}
        for w in seq.table.world_list(seq.table.full):
            weight_of.setdefault(w, set()).add(w.weight)
        assert back.table.dense == all(len(found) == 1 for found in weight_of.values())
        level = Const(seq.vocab.names[0]) if seq.vocab.names else TRUE
        kb = PossibilisticKB(((frozenset([level]), Fraction(1, 2)),), seq.vocab)
        with tempfile.TemporaryDirectory() as tmp:
            kb_file, seq_file = Path(tmp, "kb.poss"), Path(tmp, "seq.json")
            kb_file.write_text(serialize_kb(KbDocument("poss", seq.vocab, kb)))
            seq_file.write_text(text)
            for argv in (["explain", seq_file], ["poss", "check", kb_file, seq_file]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(map(str, argv)))
                assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()

    def test_possibility_sequence_builds_no_world(self, monkeypatch, tmp_path, capsys):
        """Nor does checking it, in process or through the CLI after a
        JSON round trip."""
        read = []
        monkeypatch.setattr(
            cli, "sequence_from_json", lambda text: read.append(sequence_from_json(text)) or read[-1]
        )
        wide = Vocabulary([f"c{i}" for i in range(12)])
        levels = ((frozenset({Const("c0") & Const("c1")}), Fraction(3, 10)),)
        levels += ((frozenset({Const("c2")}), Fraction(7, 10)),)
        rng = random.Random(1212)
        kbs = [PossibilisticKB(levels, wide)] + [random_possibilistic_kb(rng) for _ in range(80)]
        kb_file, seq_file = tmp_path / "kb.poss", tmp_path / "seq.json"
        checked = 0
        for kb in kbs:
            seq = build_poss_sequence(kb)
            if not isinstance(seq, PartitionSequence):
                continue
            assert check_poss_sequence(kb, seq) == []
            back = sequence_from_json(sequence_to_json(seq))
            assert check_poss_sequence(kb, back) == []
            kb_file.write_text(serialize_kb(KbDocument("poss", kb.vocab, kb)))
            seq_file.write_text(sequence_to_json(seq))
            assert main(["poss", "check", str(kb_file), str(seq_file)]) == 0
            for built in (seq, back, read[-1]):
                assert built.table.dense and not built.table._worlds
            checked += 1
        assert checked >= 20
        capsys.readouterr()

    def test_a_world_of_two_weights_stays_listed(self, tmp_path, capsys):
        p, not_p = {"assign": {"p": 1}}, {"assign": {"p": 0}}
        classes = [[dict(p, weight="1/4")], [dict(p, weight=Fraction(3, 4)), dict(not_p, weight=1)]]
        doc = {"kind": "conditional", "vocab": ["p"], "classes": classes}
        assert not sequence_from_obj(doc).table.dense
        path = tmp_path / "seq.json"
        path.write_text(render_json(doc))
        assert main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "W0 = {<{p}, 0.25>}   weight 0.25" in out
        assert "W1 = {{~p}, <{p}, 0.75>}   weight 1.75" in out


_ABSENT = object()  # a world written with no weight


@st.composite
def mutated_documents(draw):
    """A sequence document over 0 to 4 constants, with now and then one of
    the oddities that a reader must read or word as the per-world reader
    does: assignment keys permuted, added or missing; a truth value
    true, "1", 2 or None; a world listed twice in its class; a weight
    written as an int, a float (as ``json.loads`` gives it), a string, a
    long string that is no rational, or a bool, or absent; a vocabulary, class list, class, world or whole
    document of the wrong JSON type."""
    n = draw(st.integers(0, 4))
    names = [f"c{i}" for i in range(n)]
    rare = st.integers(0, 11).map(lambda roll: roll == 0)
    weights = st.one_of(
        st.just(_ABSENT),
        st.sampled_from([1, 0, 2, -1, True, False, None, "1", "1/3", "3/10", "x", "1/0", " 2 "]),
        st.just("x" * 200),
        st.fractions(-1, 2, max_denominator=10),
        st.sampled_from([Fraction("0.3"), Fraction(1), [1], {}]),
    )

    def world():
        bits = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
        assign = dict(zip(names, bits))
        if names and draw(rare):
            odd = draw(st.sampled_from([True, False, "1", 2, None, -1, Fraction(1), 1.5]))
            assign[draw(st.sampled_from(names))] = odd
        if draw(rare):
            keys = draw(st.permutations(list(assign)))
            assign = {k: assign[k] for k in keys}
        if draw(rare):
            assign["zz"] = 0
        if names and draw(rare):
            del assign[draw(st.sampled_from(names))]
        w = {"assign": assign}
        if draw(rare):
            w = draw(st.sampled_from([{}, {"weight": 1}, {"assign": names}, {"assign": None}, "w", 3]))
        weight = draw(weights)
        if weight is not _ABSENT and isinstance(w, dict):
            w["weight"] = weight
        return w

    classes = []
    for _ in range(draw(st.integers(1, 4))):
        cls = [world() for _ in range(draw(st.integers(0, 5)))]
        if cls and draw(rare):
            cls.insert(draw(st.integers(0, len(cls))), copy.deepcopy(draw(st.sampled_from(cls))))
        classes.append(cls)
    if draw(rare):
        classes[draw(st.integers(0, len(classes) - 1))] = draw(st.sampled_from([{}, 3, None, "c"]))
    provenance = draw(st.sampled_from([None, [""] * len(classes), ["r"] * len(classes), "r", [1]]))
    kind = draw(st.sampled_from(KINDS + ("bogus",)))
    vocab = names
    if draw(rare):
        vocab = draw(st.sampled_from(["".join(names), dict.fromkeys(names, 1), [*names, 1], None]))
    if draw(rare):
        classes = draw(st.sampled_from([{}, None, "c"]))
    doc = {"kind": kind, "vocab": vocab, "classes": classes, "provenance": provenance}
    return draw(st.sampled_from([doc, [doc]])) if draw(rare) else doc


class TestBulkReader:
    """The reader checks each class in bulk and walks it world by world
    only to word a fault; on any document it gives the sequence, weights
    and table of the per-world reader in genkit, or its error."""

    @staticmethod
    def outcome(read, doc):
        try:
            seq = read(copy.deepcopy(doc))
        except (KeyError, TypeError, ValueError) as exc:
            return type(exc), str(exc)
        weighed = [sorted((w.bits(), w.weight) for w in cls) for cls in seq.classes]
        masses = list(map(seq.table.mass, seq.masks))
        return seq, weighed, masses, seq.table.dense, render_json(seq)

    @settings(max_examples=250, deadline=None)
    @given(mutated_documents())
    def test_matches_the_per_world_reader(self, doc):
        assert self.outcome(sequence_from_obj, doc) == self.outcome(per_world_sequence_from_obj, doc)

    @pytest.mark.parametrize(
        "first, message",
        [
            ({"assign": {"q": 1, "p": 0}}, "assignment of 'q' is 2, not 0 or 1"),
            ({"assign": {"p": 0}}, "world assignment does not match the vocabulary"),
            ({"assign": {"p": 0, "q": True}}, "assignment of 'q' is True, not 0 or 1"),
            ({"assign": {"p": 0, "q": 1}, "weight": True}, "bad weight value: True"),
            ({"assign": {"p": 0, "q": 1}, "weight": "-1/2"}, "negative world weight: -1/2"),
            ({"weight": 1}, "missing key 'assign'"),
        ],
    )
    def test_first_fault_in_document_order(self, first, message):
        """The fault raised is the first world's of the first class that
        has one, whatever later worlds hold, named by its path; a world
        listed twice in an earlier class comes before it, named by its
        second listing."""
        later = [{"assign": {"p": 1, "q": 2}}, {"assign": {"p": 1, "q": 1}, "weight": "x"}]
        ok = {"assign": {"p": 1, "q": 1}}
        # only later[0] holds q = 2: its fault is met when the first world is sound
        j = 1 if message == "assignment of 'q' is 2, not 0 or 1" else 0
        twice = "classes[0][1]: a world is listed twice in one class"
        for head, expected in (([ok], f"classes[1][{j}]: {message}"), ([ok, ok], twice)):
            doc = {"kind": "default", "vocab": ["p", "q"], "classes": [head, [first, *later]]}
            with pytest.raises(ValueError) as got:
                sequence_from_obj(doc)
            assert str(got.value) == expected
            assert self.outcome(sequence_from_obj, doc) == self.outcome(per_world_sequence_from_obj, doc)

    def test_equal_weights_written_differently_join_one_share(self):
        p, not_p = {"p": 1}, {"p": 0}
        text = json.dumps(
            {
                "kind": "conditional",
                "vocab": ["p"],
                "classes": [[{"assign": p, "weight": 0.3}], [{"assign": not_p, "weight": "3/10"}]],
            }
        )
        seq = sequence_from_json(text)
        assert seq.table.dense
        assert seq.table.shares == ((0b11, Fraction(3, 10)),)

    @staticmethod
    def weighed(weight: str) -> str:
        return (
            '{"kind": "conditional", "vocab": ["p"], "classes": '
            f'[[{{"assign": {{"p": 1}}, "weight": {weight}}}], [{{"assign": {{"p": 0}}}}]]}}'
        )

    @pytest.mark.parametrize("digits", [1, 5000, 100000])
    def test_integers_of_any_length_within_the_bound_are_read(self, digits):
        # the interpreter's int() refuses more than 4300 digits by default
        seq = sequence_from_json(self.weighed("1" + "0" * (digits - 1)))
        weights = [sorted(w.weight for w in cls) for cls in seq.classes]
        assert weights == [[10 ** (digits - 1)], [1]]

    def test_integer_past_the_bound_and_true_are_refused(self):
        with pytest.raises(ValueError, match="^literal longer than 100000 characters$"):
            sequence_from_json(self.weighed("1" * 100001))
        with pytest.raises(ValueError, match=r"^classes\[0\]\[0\]: bad weight value: True$"):
            sequence_from_json(self.weighed("true"))

    @pytest.mark.parametrize(
        "weight, message",
        [
            ("x", "bad weight value: 'x'"),
            ("x" * 200, f"bad weight value: '{'x' * 40}...'"),
            ("1/2/3", "bad weight value: '1/2/3'"),
            ("1/0", "bad weight value: '1/0'"),
            (-(10**5000), f"negative world weight: -1{'0' * 38}..."),
            ([1] * 100, f"bad weight value: [{'1, ' * 13}..."),
        ],
        ids=["x", "long", "two-slashes", "zero-denominator", "long-negative", "long-list"],
    )
    def test_weight_that_is_no_rational_is_quoted_clipped(self, weight, message):
        """A weight string that is no rational is quoted, clipped, as the
        reader's other bad weights are, never in the interpreter's words; a
        negative weight or a weight of another type is clipped too."""
        classes = [[{"assign": {"p": 0}, "weight": weight}]]
        doc = {"kind": "conditional", "vocab": ["p"], "classes": classes}
        expected = (ValueError, f"classes[0][0]: {message}")
        assert self.outcome(sequence_from_obj, doc) == expected
        assert self.outcome(per_world_sequence_from_obj, doc) == expected

    @pytest.mark.parametrize(
        "weight, message",
        [
            ("1" * 100001, "literal longer than 100000 characters"),
            ("1e-10000000", "decimal exponent beyond 10000"),
        ],
        ids=["length", "exponent"],
    )
    def test_weight_string_past_a_bound_names_the_bound(self, weight, message):
        with pytest.raises(ValueError) as got:
            sequence_from_json(self.weighed(json.dumps(weight)))
        assert str(got.value) == f"classes[0][0]: {message}"

    @pytest.mark.parametrize("depth", [2, 10, 3000])
    def test_too_deep_is_refused_alike_on_any_interpreter(self, depth):
        """Whether the JSON parser reads a document of a given depth
        depends on the interpreter; one nested deeper than a sequence
        document can be is refused with one message either way."""
        classes = "[" * depth + '[[{"assign": {"p": 0}}], [{"assign": {"p": 1}}]]' + "]" * depth
        for text in (f'{{"kind": "default", "vocab": ["p"], "classes": {classes}}}', classes):
            with pytest.raises(ValueError, match="^nested too deeply$"):
                sequence_from_json(text)
        with pytest.raises(ValueError, match="^nested too deeply$"):
            sequence_from_json("[" * 200000)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            pytest.param("[]", ValueError, "^the document must be an object$", id="document"),
            pytest.param(
                '{"kind": "default", "vocab": ["p"], "classes": [[[1]]]}',
                ValueError,
                r"^classes\[0\]\[0\] must be an object$",
                id="world",
            ),
            ('{"kind": "default", "vocab": ["p"], "classes": [[{"assign": {"p": 2}}]]}',
             ValueError, "assignment of 'p' is 2, not 0 or 1"),
        ],
    )
    def test_shallow_faults_keep_their_message(self, text, error, message):
        with pytest.raises(error, match=message):
            sequence_from_json(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"vocab": "pq"}, "vocab must be a list of strings"),
            ({"vocab": {"p": 1}}, "vocab must be a list of strings"),
            ({"vocab": ["p", 1]}, "vocab must be a list of strings"),
            ({"vocab": None}, "vocab must be a list of strings"),
            ({"classes": None}, "classes must be a list"),
            ({"classes": {}}, "classes must be a list"),
            ({"classes": [[{"assign": {"p": 0}}], {}]}, "classes[1] must be a list"),
            ({"classes": [[{"assign": {"p": 0}}, [1]]]}, "classes[0][1] must be an object"),
            ({"classes": [[{"assign": {"p": 0}}, {"assign": ["p"]}]]},
             "classes[0][1].assign must be an object"),
            ({"vocab": [], "classes": [[{"assign": []}]]},
             "classes[0][0].assign must be an object"),
        ],
    )
    def test_part_of_the_wrong_type_is_named(self, edit, message):
        doc = {"kind": "default", "vocab": ["p"], "classes": [[{"assign": {"p": 0}}], []], **edit}
        for read in (sequence_from_obj, per_world_sequence_from_obj):
            with pytest.raises(ValueError) as got:
                read(copy.deepcopy(doc))
            assert str(got.value) == message


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

    def test_repr_and_empty_class_list(self, pq):
        seq = PartitionSequence(TruthTable(pq), [1, 14], "default", ["", "r1"])
        assert repr(seq) == "<default sequence [{~p, ~q}], [{~p, q}, {p, ~q}, {p, q}]>"
        with pytest.raises(ValueError, match="a partition sequence needs at least one class"):
            PartitionSequence(TruthTable(pq), [], "default")

    def test_compared_without_building_worlds(self, monkeypatch):
        names = [f"c{i}" for i in range(10)]
        rules = "".join(f"rule r{i}: true : M c{i} / c{i}\n" for i in range(3))
        text = f"vocab: {' '.join(names)}\n{rules}"
        chains = [build_default_sequences(parse_kb(text, "default").body) for _ in range(2)]
        # on a listed table, the lottery's, worlds are built only when read
        p1, p2 = Not(Const("p1")), Not(Const("p2"))
        lotteries = [
            [condition(space, [p1, p2]), condition(space, [p2, p1])]
            for space in (lottery_space(200), lottery_space(200))
        ]
        built = []
        trusted = logic.World._trusted.__func__
        monkeypatch.setattr(World, "__init__", lambda *args: built.append(args))
        monkeypatch.setattr(
            World, "_trusted", classmethod(lambda *args: built.append(args) or trusted(*args))
        )
        for a, b in (chains, lotteries):
            assert a == b and list(map(hash, a)) == list(map(hash, b)) and a[0] != a[1]
            assert all(isomorphic(x, y) for x in a for y in b)
            assert render_json(a) == render_json(b)
        assert built == []

    def test_key_is_built_once(self, monkeypatch, pq):
        """``==`` and ``hash`` read each class's digits on first use only."""
        a, b = (PartitionSequence(TruthTable(pq), [1, 14], "default") for _ in range(2))
        assert a == b and hash(a) == hash(b)
        read = []
        monkeypatch.setattr(sequences, "world_rows", lambda *args: read.append(args))
        assert a == b and hash(a) == hash(b) and a in {b}
        assert read == []

    def test_round_trip_is_equal_with_equal_hash(self):
        rng = random.Random(484950)
        for _ in range(60):
            seqs = built(rng)
            back = [sequence_from_json(sequence_to_json(seq)) for seq in seqs]
            for seq, again in zip(seqs, back):
                assert seq == again and hash(seq) == hash(again)
            assert set(seqs) == set(back)
            assert len(set(seqs)) == len(set(map(sequence_to_json, seqs)))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 20),
        st.lists(st.sets(st.integers(0, 2**20 - 1), max_size=6), min_size=1, max_size=5),
        st.sampled_from(KINDS),
    )
    def test_dense_round_trip_up_to_the_world_cap(self, n, classes, kind):
        table = TruthTable(Vocabulary([f"c{i}" for i in range(n)]))
        masks = [sum(1 << bit for bit in {k % table.size for k in cls}) for cls in classes]
        seq = PartitionSequence(table, masks, kind, [f"r{i}" for i in range(len(masks))])
        back = sequence_from_json(sequence_to_json(seq))
        assert back.table.dense and back == seq and hash(back) == hash(seq)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(21, 40),
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 2**40 - 1),
                    st.fractions(min_value=0, max_value=3, max_denominator=12),
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_weighted_round_trip_over_the_world_cap(self, n, classes):
        vocab = Vocabulary([f"c{i}" for i in range(n)])

        def world(bits, weight):
            return World(vocab, [c for k, c in enumerate(vocab.names) if bits >> k & 1], weight)

        classes = [[world(*drawn) for drawn in cls] for cls in classes]
        seq = PartitionSequence.of_classes(classes, vocab, "threshold")
        text = sequence_to_json(seq)
        back = sequence_from_json(text)
        assert not back.table.dense and back == seq and hash(back) == hash(seq)
        assert sequence_to_json(back) == text

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

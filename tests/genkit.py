"""Seeded random generators and engine-independent oracles.

The oracles re-derive expected answers straight from the written
conditions: truth tables for entailment, bounded exhaustive enumeration
of candidate sequences for the two fixed-point engines, and direct ratio
formulas for conditional probability. They share only the formula
evaluator with the engines under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

from partseq import (
    FALSE,
    TRUE,
    AelPremises,
    And,
    Const,
    DefaultRule,
    DefaultTheory,
    Iff,
    Implies,
    ModalFormula,
    Not,
    Or,
    PossibilisticKB,
    SampleSpace,
    Vocabulary,
    World,
    conjoin,
    enumerate_worlds,
    evaluate,
)

NAMES = ("p", "q", "r")


# ---------------------------------------------------------------------------
# Random syntax
# ---------------------------------------------------------------------------


def random_formula(rng: random.Random, names, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return TRUE if rng.random() < 0.5 else FALSE
        return Const(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (And, Or, Implies, Iff)[kind - 1](left, right)


def random_vocab(rng: random.Random, max_size: int = 3) -> Vocabulary:
    return Vocabulary(NAMES[: rng.randint(1, max_size)])


def random_default_theory(rng: random.Random) -> DefaultTheory:
    vocab = random_vocab(rng)
    names = vocab.names
    rules = tuple(
        DefaultRule(
            rule_id=f"r{i}",
            alpha=random_formula(rng, names, rng.randint(0, 3)),
            betas=tuple(
                random_formula(rng, names, rng.randint(0, 2))
                for _ in range(rng.randint(1, 2))
            ),
            gamma=random_formula(rng, names, rng.randint(0, 3)),
        )
        for i in range(rng.randint(0, 3))
    )
    facts = tuple(
        random_formula(rng, names, rng.randint(0, 2)) for _ in range(rng.randint(0, 2))
    )
    return DefaultTheory(rules=rules, facts=facts, vocab=vocab)


def random_premises(rng: random.Random) -> AelPremises:
    vocab = random_vocab(rng)
    names = vocab.names
    formulas = []
    for _ in range(rng.randint(0, 3)):
        alpha = (
            random_formula(rng, names, rng.randint(0, 2))
            if rng.random() < 0.6
            else None
        )
        betas = tuple(
            random_formula(rng, names, rng.randint(0, 2))
            for _ in range(rng.randint(0, 2))
        )
        gamma = random_formula(rng, names, rng.randint(0, 3))
        formulas.append(ModalFormula(gamma=gamma, alpha=alpha, betas=betas))
    return AelPremises(formulas=tuple(formulas), vocab=vocab)


def random_space(rng: random.Random) -> SampleSpace:
    vocab = random_vocab(rng)
    worlds = enumerate_worlds(vocab)
    chosen = [w for w in worlds if rng.random() < 0.7] or [rng.choice(worlds)]
    raw = [rng.randint(0, 8) for _ in chosen]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    weighted = tuple(
        World(vocab, w.true_names, Fraction(r, total)) for w, r in zip(chosen, raw)
    )
    return SampleSpace(worlds=weighted, vocab=vocab)


def random_possibilistic_kb(rng: random.Random) -> PossibilisticKB:
    vocab = random_vocab(rng)
    names = vocab.names
    n_levels = rng.randint(1, 3)
    cuts = sorted(rng.sample(range(1, 20), n_levels))
    values = tuple(Fraction(c, 20) for c in cuts)
    levels = tuple(
        (
            frozenset(
                random_formula(rng, names, rng.randint(0, 2))
                for _ in range(rng.randint(1, 2))
            ),
            value,
        )
        for value in values
    )
    return PossibilisticKB(levels=levels, vocab=vocab)


# ---------------------------------------------------------------------------
# Truth-table oracle
# ---------------------------------------------------------------------------


def truth_table_entails(premises, phi, vocab) -> bool:
    """Entailment decided by iterating every assignment dictionary."""
    import itertools

    for bits in itertools.product((False, True), repeat=len(vocab.names)):
        world = World(vocab, [n for n, b in zip(vocab.names, bits) if b])
        if all(evaluate(p, world) for p in premises) and not evaluate(phi, world):
            return False
    return True


# ---------------------------------------------------------------------------
# Sequence-condition oracles
# ---------------------------------------------------------------------------
#
# Candidate sequences are grown class by class. Any genuinely valid
# sequence must make each intermediate class the exact set of remaining
# worlds falsifying some rule's conclusion, so growing only those shapes
# loses nothing; every candidate is then re-checked against the full
# written conditions from scratch.


class _TruthSets:
    """Satisfying-world sets of each formula of interest, computed once."""

    def __init__(self, worlds):
        self.worlds = frozenset(worlds)
        self.cache = {}

    def sat(self, phi) -> frozenset:
        if phi not in self.cache:
            self.cache[phi] = frozenset(w for w in self.worlds if evaluate(phi, w))
        return self.cache[phi]


def _default_sequence_ok(theory, classes, ts: _TruthSets) -> bool:
    if len(classes) < 2:
        return False
    fact_sat = ts.sat(conjoin(theory.facts))
    if classes[0] != ts.worlds - fact_sat:
        return False
    last = classes[-1]
    for i in range(1, len(classes) - 1):
        remaining = frozenset().union(*classes[i:])
        ok = False
        for rule in theory.rules:
            if not remaining <= ts.sat(rule.alpha):
                continue
            if not all(ts.sat(b) & last for b in rule.betas):
                continue
            if classes[i] == remaining - ts.sat(rule.gamma):
                ok = True
                break
        if not ok:
            return False
    for rule in theory.rules:
        if last <= ts.sat(rule.alpha) and all(ts.sat(b) & last for b in rule.betas):
            if not last <= ts.sat(rule.gamma):
                return False
    return True


def _candidate_sequences(ts: _TruthSets, first, start, conclusions, max_classes):
    """Every class list grown from ``[first]`` by splitting off the
    remaining worlds falsifying one of ``conclusions``, up to
    ``max_classes`` classes, each closed by the worlds still remaining."""

    def grow(remaining, classes):
        yield classes + [remaining]
        if len(classes) + 1 >= max_classes:
            return
        for peel in {remaining - ts.sat(gamma) for gamma in conclusions}:
            yield from grow(remaining - peel, classes + [peel])

    yield from grow(start, [first])


def default_candidates(theory, worlds):
    """The truth sets and candidate class lists the default oracle judges.

    The class budget 2 + #rules covers the longest useful sequence (one
    split per rule plus the fixed ends); longer ones only repeat empty
    splits and cannot reach new last classes.
    """
    ts = _TruthSets(worlds)
    fact_sat = ts.sat(conjoin(theory.facts))
    conclusions = [rule.gamma for rule in theory.rules]
    return ts, _candidate_sequences(
        ts, ts.worlds - fact_sat, fact_sat, conclusions, 2 + len(theory.rules)
    )


def brute_force_default_last_classes(theory, worlds) -> set[frozenset]:
    """Last classes of every valid sequence, by bounded enumeration."""
    ts, candidates = default_candidates(theory, worlds)
    return {c[-1] for c in candidates if _default_sequence_ok(theory, c, ts)}


def _ael_sequence_ok(premises, classes, ts: _TruthSets) -> bool:
    if len(classes) < 2 or classes[0]:
        return False
    last = classes[-1]
    if not last:
        return False
    for i in range(1, len(classes) - 1):
        ok = False
        for pm in premises.formulas:
            alpha_sat = ts.sat(pm.alpha) if pm.alpha is not None else ts.worlds
            if not last <= alpha_sat:
                continue
            if not all(last - ts.sat(b) for b in pm.betas):
                continue
            remaining = frozenset().union(*classes[i:])
            if classes[i] == remaining - ts.sat(pm.gamma):
                ok = True
                break
        if not ok:
            return False
    for pm in premises.formulas:
        alpha_sat = ts.sat(pm.alpha) if pm.alpha is not None else ts.worlds
        if last <= alpha_sat and all(last - ts.sat(b) for b in pm.betas):
            if not last <= ts.sat(pm.gamma):
                return False
    return True


def ael_candidates(premises, worlds):
    """The truth sets and candidate class lists the belief oracle judges."""
    ts = _TruthSets(worlds)
    conclusions = [pm.gamma for pm in premises.formulas]
    return ts, _candidate_sequences(
        ts, frozenset(), ts.worlds, conclusions, 2 + len(premises.formulas)
    )


def brute_force_ael_last_classes(premises, worlds) -> set[frozenset]:
    ts, candidates = ael_candidates(premises, worlds)
    return {c[-1] for c in candidates if _ael_sequence_ok(premises, c, ts)}


# ---------------------------------------------------------------------------
# Probability oracles
# ---------------------------------------------------------------------------


def direct_probability(space: SampleSpace, phi) -> Fraction:
    return sum((w.weight for w in space.worlds if evaluate(phi, w)), Fraction(0))


def direct_cond_prob(space: SampleSpace, conds, psi) -> Fraction | None:
    """Pr(psi | conds) as a plain ratio of weights; None when undefined."""
    given = conjoin(conds)
    denom = direct_probability(space, given)
    if denom == 0:
        return None
    num = direct_probability(space, And(psi, given))
    return num / denom


def stepwise_threshold_accepts(space: SampleSpace, eps: Fraction, conds) -> int | None:
    """First failing step of the stepwise acceptance test, or None.

    Step i accepts when Pr(conds[i] | conds[:i]) is defined and at least
    1 - eps.
    """
    for i in range(len(conds)):
        pr = direct_cond_prob(space, conds[:i], conds[i])
        if pr is None or pr < 1 - eps:
            return i + 1
    return None

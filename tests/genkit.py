"""Seeded random generators and engine-independent oracles.

The oracles re-derive expected answers straight from the written
conditions: truth tables for entailment, bounded exhaustive enumeration
of candidate sequences for the two fixed-point engines, and direct ratio
formulas for conditional probability. They share only the formula
evaluator with the engines under test.
"""

from __future__ import annotations

import dataclasses
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
    ParseError,
    PossibilisticKB,
    SampleSpace,
    Violation,
    Vocabulary,
    World,
    conjoin,
    enumerate_worlds,
    evaluate,
    format_formula,
)
from partseq.rationals import clipped, format_fraction, integer_text, ratio_text

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


def holds_throughout(phi, worlds) -> bool:
    """Whether ``phi`` holds in every world of the set: for the model set
    of a deductively closed theory, membership of ``phi`` in the theory."""
    return all(evaluate(phi, w) for w in worlds)


# ---------------------------------------------------------------------------
# Sample-space world lines
# ---------------------------------------------------------------------------


def per_literal_world_line(line: str, lineno: int, indent: int, vocab) -> World:
    """A ``.prob`` world line read one literal at a time, each checked
    for being empty, malformed, unknown or repeated where it stands, with
    its column worked out as it goes."""
    import re

    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    colon = line.find(":", indent + 5)
    if colon < 0:
        raise ParseError(f"expected ':' in {line.strip()!r}", lineno, len(line) + 1)
    assigned: dict[str, bool] = {}
    offset = indent + 5
    for piece in line[indent + 5 : colon].split(","):
        lead = len(piece) - len(piece.lstrip())
        body = piece.strip()
        col = offset + lead + 1
        offset += len(piece) + 1
        if not body:
            raise ParseError("empty literal", lineno, col)
        negated = body.startswith("~")
        name = body[1:].strip() if negated else body
        if not ident.match(name):
            raise ParseError(f"bad literal {body!r}", lineno, col)
        if name not in vocab:
            raise ParseError(f"unknown constant {name!r}", lineno, col)
        if name in assigned:
            raise ParseError(f"constant {name!r} assigned twice", lineno, col)
        assigned[name] = not negated
    missing = [n for n in vocab.names if n not in assigned]
    if missing:
        raise ParseError(
            f"world line must assign every constant; missing {', '.join(missing)}",
            lineno,
            indent + 6,
        )
    weight_text = line[colon + 1 :].strip()
    try:
        weight = Fraction(weight_text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {weight_text!r}", lineno, colon + 2) from None
    if weight < 0:
        raise ParseError(f"negative weight {weight_text}", lineno, colon + 2)
    return World(vocab, (n for n, v in assigned.items() if v), weight)


# ---------------------------------------------------------------------------
# Sequence documents
# ---------------------------------------------------------------------------


def _per_world_weight(raw) -> Fraction:
    # bool is an int too, but true is no weight
    if isinstance(raw, (Fraction, str)) or type(raw) is int:
        try:
            weight = raw if type(raw) is Fraction else Fraction(raw)
        except (ValueError, ZeroDivisionError):  # "x", "1/0"
            pass
        else:
            if weight.numerator < 0:
                raise ValueError(f"negative world weight: {clipped(ratio_text(weight))}")
            return weight
    shown = repr(clipped(raw)) if type(raw) is str else clipped(repr(raw))
    raise ValueError(f"bad weight value: {shown}")


def per_world_sequence_from_obj(obj: dict):
    """The sequence of a JSON document, read in one pass that takes each
    world to its truth values and weight and raises the first fault met;
    each weight is parsed where it stands, and shares are grouped by
    ``Fraction``. A document over at most ``DEFAULT_WORLD_CAP`` constants
    that gives each world one weight is read onto the dense table of its
    vocabulary, reweighted unless every weight is absent or the integer 1;
    any other onto a table that lists its worlds."""
    from itertools import chain, compress

    from partseq import PartitionSequence
    from partseq.logic import DEFAULT_WORLD_CAP, TruthTable, _from_bits

    digits = bytes.maketrans(b"\0\1", b"01")
    if type(obj) is not dict:
        raise ValueError("the document must be an object")
    if type(obj["vocab"]) is not list or any(type(name) is not str for name in obj["vocab"]):
        raise ValueError("vocab must be a list of strings")
    vocab = Vocabulary(obj["vocab"])
    names, name_set = vocab.names, set(vocab.names)
    if type(obj["classes"]) is not list:
        raise ValueError("classes must be a list")
    classes, weights, unit = [], [], True
    for i, listed in enumerate(obj["classes"]):
        if type(listed) is not list:
            raise ValueError(f"classes[{i}] must be a list")
        rows = []
        for j, w in enumerate(listed):
            where = f"classes[{i}][{j}]"
            if type(w) is not dict:
                raise ValueError(f"{where} must be an object")
            if "assign" not in w:
                raise ValueError(f"{where}: missing key 'assign'")
            assign = w["assign"]
            if type(assign) is not dict:
                raise ValueError(f"{where}.assign must be an object")
            if assign.keys() != name_set:
                raise ValueError(f"{where}: world assignment does not match the vocabulary")
            values = tuple(map(assign.__getitem__, names))
            # bool is an int too, but not a truth value written as 0 or 1
            if not set(map(type, values)) <= {int} or not set(values) <= {0, 1}:
                for name, value in zip(names, values):
                    if type(value) is not int or value not in (0, 1):
                        shown = integer_text(value) if type(value) is int else repr(value)
                        raise ValueError(
                            f"{where}: assignment of {name!r} is {clipped(shown)}, not 0 or 1"
                        )
            weight = w.get("weight", 1)
            if type(weight) is not int or weight != 1:
                try:
                    weight, unit = _per_world_weight(weight), False
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
            if bytes(values) in rows:
                raise ValueError(f"{where}: a world is listed twice in one class")
            rows.append(bytes(values))
            weights.append(weight)
        classes.append(rows)
    provenance = [] if obj.get("provenance") is None else obj["provenance"]
    if type(provenance) is not list or not all(type(p) is str for p in provenance):
        raise ValueError("provenance must be null or a list of strings")
    if len(vocab) <= DEFAULT_WORLD_CAP:
        size, table = 1 << len(vocab), TruthTable(vocab)
        found = [[int(row.translate(digits) or b"0", 2) for row in rows] for rows in classes]
        if not unit:
            weight_of = dict(zip(chain.from_iterable(found), weights))
            shares: dict[Fraction, list[int]] = {}
            for i, weight in weight_of.items():
                shares.setdefault(weight, []).append(i)
            table = table.reweighted((_from_bits(at, size), q) for q, at in shares.items())
            if [weight_of[i] for indices in found for i in indices] != weights:
                table = None  # a world of two weights: read onto a listed table below
        if table is not None:
            masks = [_from_bits(indices, size) for indices in found]
            return PartitionSequence(table, masks, obj["kind"], provenance)
    weight = iter(weights).__next__
    worlds = [[World(vocab, compress(names, row), weight()) for row in rows] for rows in classes]
    return PartitionSequence.of_classes(worlds, vocab, obj["kind"], provenance)


# ---------------------------------------------------------------------------
# Structure oracle
# ---------------------------------------------------------------------------


def per_world_structure(seq, all_worlds) -> list[Violation]:
    """The violated clauses of being a partition sequence of
    ``all_worlds``, found by comparing ``World`` sets one world at a time:
    at least two classes, classes pairwise disjoint, union exactly
    ``all_worlds``."""
    problems = []
    if len(seq.classes) < 2:
        problems.append(Violation("length", "a partition sequence has at least two classes"))
    seen: dict = {}
    for i, cls in enumerate(seq.classes):
        overlap = []
        for w in cls:
            if w in seen:
                overlap.append(w)
            else:
                seen[w] = i
        for w in sorted(overlap, key=World.bits):
            problems.append(
                Violation(
                    "disjointness",
                    f"world {w!r} appears in classes {seen[w]} and {i}",
                    class_index=i,
                )
            )
    target = frozenset(all_worlds)
    union = frozenset().union(*seq.classes)
    for w in sorted(target - union, key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} missing from the sequence"))
    for w in sorted(union - target, key=World.bits):
        problems.append(Violation("coverage", f"world {w!r} does not belong to the world set"))
    return problems


def renamed_formula(phi, suffix: str):
    """``phi`` with each constant ``c`` renamed ``c + suffix``."""
    match phi:
        case Const(name):
            return Const(name + suffix)
        case Not(sub):
            return Not(renamed_formula(sub, suffix))
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return type(phi)(renamed_formula(l, suffix), renamed_formula(r, suffix))
        case _:
            return phi


def renamed(base, suffix: str):
    """A default theory or premise set with each constant and rule label
    ``x`` renamed ``x + suffix``."""

    def rename(phi):
        return renamed_formula(phi, suffix)

    vocab = Vocabulary(name + suffix for name in base.vocab.names)
    if isinstance(base, DefaultTheory):
        rules = tuple(
            DefaultRule(
                r.rule_id + suffix, rename(r.alpha), tuple(map(rename, r.betas)), rename(r.gamma)
            )
            for r in base.rules
        )
        return DefaultTheory(rules, tuple(map(rename, base.facts)), vocab)
    formulas = tuple(
        ModalFormula(
            gamma=rename(pm.gamma),
            alpha=None if pm.alpha is None else rename(pm.alpha),
            betas=tuple(map(rename, pm.betas)),
        )
        for pm in base.formulas
    )
    return AelPremises(formulas, vocab)


def disjoint_union(bases, rng: random.Random):
    """One base holding the items of ``bases`` of one kind, which share no
    constant, over their constants shuffled by ``rng``."""
    names = [name for base in bases for name in base.vocab.names]
    vocab = Vocabulary(rng.sample(names, len(names)))
    if isinstance(bases[0], DefaultTheory):
        rules = tuple(r for base in bases for r in base.rules)
        return DefaultTheory(rules, tuple(f for base in bases for f in base.facts), vocab)
    return AelPremises(tuple(pm for base in bases for pm in base.formulas), vocab)


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


def _candidate_sequences(ts: _TruthSets, first, start, conclusions, max_classes, empty=True):
    """Every class list grown from ``[first]`` by splitting off the
    remaining worlds falsifying one of ``conclusions``, up to
    ``max_classes`` classes, each closed by the worlds still remaining.
    With ``empty`` false no split is empty: a valid list with an empty
    split stays valid without it, and keeps its last class."""

    def grow(remaining, classes):
        yield classes + [remaining]
        if len(classes) + 1 >= max_classes:
            return
        for peel in {remaining - ts.sat(gamma) for gamma in conclusions}:
            if peel or empty:
                yield from grow(remaining - peel, classes + [peel])

    yield from grow(start, [first])


def default_candidates(theory, worlds, empty=True):
    """The truth sets and candidate class lists the default oracle judges.

    The class budget 2 + #rules covers the longest useful sequence (one
    split per rule plus the fixed ends); longer ones only repeat empty
    splits and cannot reach new last classes.
    """
    ts = _TruthSets(worlds)
    fact_sat = ts.sat(conjoin(theory.facts))
    conclusions = [rule.gamma for rule in theory.rules]
    return ts, _candidate_sequences(
        ts, ts.worlds - fact_sat, fact_sat, conclusions, 2 + len(theory.rules), empty
    )


def brute_force_default_last_classes(theory, worlds) -> set[frozenset]:
    """Last classes of every valid sequence, by bounded enumeration."""
    ts, candidates = default_candidates(theory, worlds, empty=False)
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


def ael_candidates(premises, worlds, empty=True):
    """The truth sets and candidate class lists the belief oracle judges."""
    ts = _TruthSets(worlds)
    conclusions = [pm.gamma for pm in premises.formulas]
    return ts, _candidate_sequences(
        ts, frozenset(), ts.worlds, conclusions, 2 + len(premises.formulas), empty
    )


def brute_force_ael_last_classes(premises, worlds) -> set[frozenset]:
    ts, candidates = ael_candidates(premises, worlds, empty=False)
    return {c[-1] for c in candidates if _ael_sequence_ok(premises, c, ts)}


# ---------------------------------------------------------------------------
# Peel order oracle
# ---------------------------------------------------------------------------
#
# The sequences the builders emit for given fixed points, by the plain
# walk: every maximal order of non-empty ready peels, with no pruning,
# its repeated class lists dropped after the first, under the order limit.


def _peel_orders(first, start, steps):
    """Each (classes, labels) of a maximal order in which ``steps``,
    (label, prerequisite worlds, conclusion worlds), peel ``start`` after
    ``[first]``: any step peels whose prerequisite holds throughout what
    remains and whose conclusion fails somewhere in it; depth first, in
    step order."""

    def grow(remaining, classes, labels):
        ready = [
            (label, remaining - conclusion)
            for label, prerequisite, conclusion in steps
            if remaining <= prerequisite and not remaining <= conclusion
        ]
        if not ready:
            yield classes + [remaining], labels + [""]
        for label, peel in ready:
            yield from grow(remaining - peel, classes + [peel], labels + [label])

    yield from grow(start, [first], [""])


def _limited(orders_per_point, limit: int) -> list[tuple[list, list]]:
    """The distinct class lists of each point's orders, first found kept,
    at most ``limit`` over all points, and at least one for each point."""
    results = []
    for orders in orders_per_point:
        seen = set()
        for classes, labels in orders:
            if seen and len(results) >= limit:
                break
            if tuple(classes) not in seen:
                seen.add(tuple(classes))
                results.append((classes, labels))
    return results


def reference_default_sequences(theory, kernels, limit: int) -> list[tuple[list, list]]:
    """(classes, provenance) of the default sequences for ``kernels``,
    the extensions' model sets in report order: the facts' countermodels
    first, then the facts' models peeled by the rules whose every
    justification holds somewhere in the kernel."""
    ts = _TruthSets(enumerate_worlds(theory.vocab))
    facts = ts.sat(conjoin(theory.facts))

    def orders(kernel):
        steps = [
            (rule.rule_id, ts.sat(rule.alpha), ts.sat(rule.gamma))
            for rule in theory.rules
            if all(ts.sat(b) & kernel for b in rule.betas)
        ]
        return _peel_orders(ts.worlds - facts, facts, steps)

    return _limited(map(orders, filter(None, kernels)), limit)


def reference_ael_sequences(premises, kernels, limit: int) -> list[tuple[list, list]]:
    """(classes, provenance) of the belief sequences for ``kernels``, the
    consistent expansions' model sets in report order: no first class,
    then every world peeled by the premises the kernel licenses."""
    ts = _TruthSets(enumerate_worlds(premises.vocab))

    def orders(kernel):
        steps = [
            (str(pm), ts.worlds, ts.sat(pm.gamma))
            for pm in premises.formulas
            if (pm.alpha is None or kernel <= ts.sat(pm.alpha))
            and not any(kernel <= ts.sat(b) for b in pm.betas)
        ]
        return _peel_orders(frozenset(), ts.worlds, steps)

    return _limited(map(orders, kernels), limit)


# ---------------------------------------------------------------------------
# Operator oracles
# ---------------------------------------------------------------------------


def _subset(ordered, mask) -> frozenset:
    """The members of the list ``ordered`` that the bits of ``mask`` pick."""
    return frozenset(w for i, w in enumerate(ordered) if mask >> i & 1)


def _subsets(worlds):
    ordered = sorted(worlds, key=World.bits)
    for mask in range(1 << len(ordered)):
        yield _subset(ordered, mask)


def default_operator(theory, candidate, ts: _TruthSets) -> frozenset:
    """Model set of the least theory containing the facts and closed under
    every rule whose justifications are each consistent with ``candidate``.

    A theory is closed when holding a rule's prerequisite makes it hold
    the conclusion. The least closed theory is the intersection of all
    closed ones, so its model set is the union of every closed model set
    inside the facts' models, found here by trying each subset.
    """
    licensed = [
        rule for rule in theory.rules if all(ts.sat(b) & candidate for b in rule.betas)
    ]
    closed = frozenset()
    for sub in _subsets(ts.sat(conjoin(theory.facts))):
        if all(
            sub <= ts.sat(rule.gamma) for rule in licensed if sub <= ts.sat(rule.alpha)
        ):
            closed |= sub
    return closed


def belief_operator(premises, kernel_worlds, ts: _TruthSets) -> frozenset:
    """Model set of the least kernel holding the conclusion of every premise
    whose positive condition the kernel believes and none of whose negative
    ones it does."""
    result = ts.worlds
    for pm in premises.formulas:
        alpha_sat = ts.sat(pm.alpha) if pm.alpha is not None else ts.worlds
        if kernel_worlds <= alpha_sat and not any(
            kernel_worlds <= ts.sat(b) for b in pm.betas
        ):
            result &= ts.sat(pm.gamma)
    return result


def cached(obj) -> set[str]:
    """The names a dataclass instance holds beyond its fields."""
    return set(vars(obj)) - {f.name for f in dataclasses.fields(obj)}


def plain(value, leaves=(int, str, type(None))) -> bool:
    """Whether ``value`` is built of tuples over ``leaves`` only: no
    ``World``, ``TruthTable`` or other object that could hold worlds."""
    if type(value) is tuple:
        return all(plain(v, leaves) for v in value)
    return isinstance(value, leaves)


def random_nonempty_subset(rng: random.Random, worlds) -> frozenset:
    return _subset(sorted(worlds, key=World.bits), rng.randrange(1, 1 << len(worlds)))


# ---------------------------------------------------------------------------
# Possibility oracle
# ---------------------------------------------------------------------------


def brute_force_poss_classes(kb, worlds) -> tuple[list[frozenset], list[Violation]]:
    """The level classes of ``kb`` walked one world at a time, the worlds
    left unplaced last, and the condition-1 violations met on the way.

    Class i holds the still-unplaced supporters of the level-(i+1)
    formulas, taken in the order of their text. A formula left without
    supporters violates condition 1 unless its stated possibility is zero.
    """
    placed: set = set()
    classes = []
    problems = []
    for formulas, value in kb.levels:
        union: set = set()
        for phi in sorted(formulas, key=format_formula):
            support = {w for w in worlds if w not in placed and evaluate(phi, w)}
            if not support and value > 0:
                problems.append(
                    Violation(
                        "condition 1",
                        f"no world left can support it at possibility {value}",
                        item=format_formula(phi),
                    )
                )
            union |= support
        classes.append(frozenset(union))
        placed |= union
    classes.append(frozenset(w for w in worlds if w not in placed))
    return classes, problems


def per_world_possibility(seq, phi) -> Fraction:
    """The weight of every class up to the highest one holding a world
    where ``phi`` is true, read one world at a time; zero when none does."""
    hits = [i for i, cls in enumerate(seq.classes) if any(evaluate(phi, w) for w in cls)]
    top = max(hits, default=-1)
    return sum((w.weight for cls in seq.classes[: top + 1] for w in cls), Fraction(0))


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


def per_world_conditioning(space: SampleSpace, conds) -> list[frozenset]:
    """The conditioning classes of ``space`` read one world at a time:
    class i holds the worlds that satisfy ``conds[:i]`` and falsify
    ``conds[i]``; the last class holds the worlds that satisfy them all."""

    def satisfies(w, k):
        return all(evaluate(c, w) for c in conds[:k])

    classes = [
        frozenset(w for w in space.worlds if satisfies(w, i) and not evaluate(phi, w))
        for i, phi in enumerate(conds)
    ]
    return classes + [frozenset(w for w in space.worlds if satisfies(w, len(conds)))]


def per_world_step_ratio(space: SampleSpace, conds, i: int, strict: bool = False):
    """Step i's peeled mass, the worlds that satisfy ``conds[:i]`` and
    falsify ``conds[i]``, over the mass still in play (the worlds that
    satisfy ``conds[:i]``), or over the whole space with ``strict``, summed
    one world at a time; None when that mass is zero."""
    in_play = [w for w in space.worlds if all(evaluate(c, w) for c in conds[:i])]
    peeled = sum((w.weight for w in in_play if not evaluate(conds[i], w)), Fraction(0))
    total = sum((w.weight for w in (space.worlds if strict else in_play)), Fraction(0))
    return peeled / total if total else None


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


# ---------------------------------------------------------------------------
# Text oracle
# ---------------------------------------------------------------------------
#
# The command line's text of world sets, written one ``World`` object at a
# time, sorted by truth values; the CLI writes the same text from masks.


def world_text(w: World) -> str:
    lits = ", ".join(n if n in w.true_names else "~" + n for n in w.vocab.names)
    if w.weight != 1:
        return f"<{{{lits}}}, {format_fraction(w.weight)}>"
    return "{" + lits + "}"


def class_text(cls) -> str:
    if not cls:
        return "{}"
    return "{" + ", ".join(world_text(w) for w in sorted(cls, key=World.bits)) + "}"


def kernel_text(kernel) -> str:
    if not kernel.worlds:
        return "inconsistent (empty model set)"
    return ", ".join(world_text(w) for w in sorted(kernel.worlds, key=World.bits))


def sequence_lines(seq, head: str = "sequence:", weighed: bool = False) -> list[str]:
    """``head``, then a line per class; ``weighed`` adds each class's weight."""
    lines = [head]
    for i, cls in enumerate(seq.classes):
        origin = f"   (from {seq.provenance[i]})" if seq.provenance[i] else ""
        mass = sum((w.weight for w in cls), Fraction(0))
        weight = f"   weight {format_fraction(mass)}" if weighed else ""
        lines.append(f"  W{i} = {class_text(cls)}{weight}{origin}")
    return lines


def explain_lines(seq) -> list[str]:
    head = f"{seq.kind} sequence over {{{', '.join(seq.vocab.names)}}}"
    lines = sequence_lines(seq, head, any(w.weight != 1 for w in seq.all_worlds))
    lines.append("preference chain (most preferred last):")
    models = [frozenset().union(*seq.classes[i:]) for i in range(len(seq.classes))]
    return lines + [f"  M{i} = {class_text(m)}" for i, m in enumerate(models)]

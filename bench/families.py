"""Seeded input families, each with an answer derived by hand.

Every generator returns the inputs the program receives (library objects
or knowledge-base text) together with the answer that the family's shape
forces. Expected answers are computed here in plain Python over bit
tuples and never come from partseq: partseq is used only to construct
the inputs. Worlds are tuples of 0/1 in vocabulary order, world sets are
frozensets of such tuples, and the order of :func:`all_worlds` is binary
counting with the first name most significant.

The seed decides names, vocabulary order, polarities, weights and which
constants a family uses; the sizes come from the caller, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import partseq as ps

# two-character names; "L" is reserved in belief premises, so lower case only
_POOL = [f"{c}{d}" for c in "abcdefghjkmnoprstuvwxyz" for d in range(10)]


def pick_names(rng, n: int) -> list[str]:
    return rng.sample(_POOL, n)


def all_worlds(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def fixing(vocab, assign: dict) -> frozenset:
    """Worlds of ``vocab`` that agree with the partial assignment."""
    idx = [(vocab.index(name), val) for name, val in assign.items()]
    return frozenset(w for w in all_worlds(len(vocab)) if all(w[i] == v for i, v in idx))


def world_bits(world, vocab) -> tuple[int, ...]:
    """A partseq World as a bit tuple over ``vocab``."""
    return tuple(1 if name in world.true_names else 0 for name in vocab)


def obj_bits(obj: dict, vocab) -> tuple[int, ...]:
    """A world object of the sequence JSON as a bit tuple over ``vocab``."""
    return tuple(obj["assign"][name] for name in vocab)


# ---------------------------------------------------------------------------
# Formulas: nested tuples with a text form, a Python truth function and a
# partseq form
# ---------------------------------------------------------------------------

TOP = ("top",)


def var(name):
    return ("var", name)


def neg(f):
    return ("not", f)


def lit(name, value: int):
    return var(name) if value else neg(var(name))


def conj(fs):
    out = fs[0]
    for f in fs[1:]:
        out = ("and", out, f)
    return out


def text(f) -> str:
    tag = f[0]
    if tag == "top":
        return "true"
    if tag == "var":
        return f[1]
    if tag == "not":
        return "~" + text(f[1])
    op = {"and": "&", "or": "|", "imp": "->"}[tag]
    return f"({text(f[1])} {op} {text(f[2])})"


def holds(f, env: dict) -> bool:
    tag = f[0]
    if tag == "top":
        return True
    if tag == "var":
        return env[f[1]] == 1
    if tag == "not":
        return not holds(f[1], env)
    a, b = holds(f[1], env), holds(f[2], env)
    return {"and": a and b, "or": a or b, "imp": (not a) or b}[tag]


def sat(f, vocab) -> frozenset:
    return frozenset(w for w in all_worlds(len(vocab)) if holds(f, dict(zip(vocab, w))))


def to_ps(f):
    tag = f[0]
    if tag == "top":
        return ps.TRUE
    if tag == "var":
        return ps.Const(f[1])
    if tag == "not":
        return ps.Not(to_ps(f[1]))
    return {"and": ps.And, "or": ps.Or, "imp": ps.Implies}[tag](to_ps(f[1]), to_ps(f[2]))


# ---------------------------------------------------------------------------
# search: default theories and belief premises with known fixed points
# ---------------------------------------------------------------------------


class Theory:
    """Default rules ``(id, prereq, justifications, conclusion)`` and facts."""

    def __init__(self, vocab, rules, facts=()):
        self.vocab = vocab
        self.rules = rules
        self.facts = list(facts)

    def to_ps(self):
        rules = tuple(
            ps.DefaultRule(rid, to_ps(a), tuple(to_ps(b) for b in bs), to_ps(g))
            for rid, a, bs, g in self.rules
        )
        facts = tuple(to_ps(f) for f in self.facts)
        return ps.DefaultTheory(rules, facts, ps.Vocabulary(self.vocab))

    def kb_text(self) -> str:
        lines = ["vocab: " + " ".join(self.vocab)]
        lines += [f"fact: {text(f)}" for f in self.facts]
        for rid, a, bs, g in self.rules:
            justs = ", ".join(f"M {text(b)}" for b in bs)
            lines.append(f"rule {rid}: {text(a)} : {justs} / {text(g)}")
        return "\n".join(lines) + "\n"

    def formulas(self):
        return self.facts + [g for _, _, _, g in self.rules]


class Premises:
    """Belief premises ``(alpha or None, betas, gamma)``."""

    def __init__(self, vocab, premises):
        self.vocab = vocab
        self.premises = premises

    def to_ps(self):
        return ps.AelPremises(
            tuple(
                ps.ModalFormula(
                    gamma=to_ps(g),
                    alpha=None if a is None else to_ps(a),
                    betas=tuple(to_ps(b) for b in bs),
                )
                for a, bs, g in self.premises
            ),
            ps.Vocabulary(self.vocab),
        )

    def kb_text(self) -> str:
        lines = ["vocab: " + " ".join(self.vocab)]
        for a, bs, g in self.premises:
            conds = ([f"L {text(a)}"] if a is not None else []) + [f"~L {text(b)}" for b in bs]
            lines.append(" & ".join(conds) + f" -> {text(g)}" if conds else text(g))
        return "\n".join(lines) + "\n"

    def formulas(self):
        return [g for _, _, g in self.premises]


def chain(rng, n, k):
    """``true : M c / c`` for k of n constants: one extension, all c true."""
    vocab = pick_names(rng, n)
    chosen = rng.sample(vocab, k)
    rules = [(f"r{i}", TOP, [var(c)], var(c)) for i, c in enumerate(chosen, 1)]
    return Theory(vocab, rules), {fixing(vocab, {c: 1 for c in chosen})}


def rivals(rng, m, u):
    """m pairs ``M p / p`` and ``M ~p / ~p`` plus u unused constants:
    one extension per choice of sides, 2^m in all."""
    vocab = pick_names(rng, m + u)
    pairs = rng.sample(vocab, m)
    rules = []
    for i, p in enumerate(pairs, 1):
        rules.append((f"y{i}", TOP, [var(p)], var(p)))
        rules.append((f"n{i}", TOP, [neg(var(p))], neg(var(p))))
    rng.shuffle(rules)
    expected = {
        fixing(vocab, dict(zip(pairs, side)))
        for side in itertools.product((0, 1), repeat=m)
    }
    return Theory(vocab, rules), expected


def prerequisite_chain(rng, k, u):
    """``c(i-1) : M ci / ci`` listed last rule first, so the operator needs
    k passes; one extension, all ci true."""
    vocab = pick_names(rng, k + u)
    order = rng.sample(vocab, k)
    rules = [
        (f"r{i}", TOP if i == 1 else var(order[i - 2]), [var(c)], var(c))
        for i, c in enumerate(order, 1)
    ]
    return Theory(vocab, rules[::-1]), {fixing(vocab, {c: 1 for c in order})}


def no_extension(rng, k):
    """``true : M s / ~s`` beside k-1 chain rules: no extension, since the
    self-defeating rule fires exactly when it is not blocked."""
    vocab = pick_names(rng, k)
    s, *others = rng.sample(vocab, k)
    rules = [("s", TOP, [var(s)], neg(var(s)))]
    rules += [(f"r{i}", TOP, [var(c)], var(c)) for i, c in enumerate(others, 1)]
    rng.shuffle(rules)
    return Theory(vocab, rules), set()


def ael_choices(rng, g, u):
    """``L pi -> pi`` and ``~L pi -> qi`` for g groups: each group either
    believes pi or falls back to qi, 2^g expansions."""
    vocab = pick_names(rng, 2 * g + u)
    ps_, qs = vocab[:g], vocab[g : 2 * g]
    rng.shuffle(vocab)
    premises = []
    for p, q in zip(ps_, qs):
        premises.append((var(p), [], var(p)))
        premises.append((None, [var(p)], var(q)))
    rng.shuffle(premises)
    expected = {
        fixing(vocab, {(p if b else q): 1 for p, q, b in zip(ps_, qs, choice)})
        for choice in itertools.product((0, 1), repeat=g)
    }
    return Premises(vocab, premises), expected


SEARCH_FAMILIES = {
    "chain": chain,
    "rivals": rivals,
    "prereq": prerequisite_chain,
    "noext": no_extension,
    "ael": ael_choices,
}


# ---------------------------------------------------------------------------
# roundtrip: commuting rules, whose sequences are the k! peel orders
# ---------------------------------------------------------------------------


def peel_orders(vocab, chosen, base: frozenset):
    """Class tuples (without the first class) of every order in which the
    conclusions ``c = 1`` for c in ``chosen`` peel ``base``."""
    out = set()
    for order in itertools.permutations(chosen):
        remaining, classes = base, []
        for c in order:
            i = vocab.index(c)
            classes.append(frozenset(w for w in remaining if w[i] == 0))
            remaining = remaining - classes[-1]
        out.add((*classes, remaining))
    return out


def commuting_default(rng, n, k):
    """k rules ``true : M c / c`` and one fact on a further constant; the
    sequences are W0 (the fact's falsifiers) followed by every peel order."""
    vocab = pick_names(rng, n)
    d, *chosen = rng.sample(vocab, k + 1)
    fact = lit(d, rng.randint(0, 1))
    rules = [(f"r{i}", TOP, [var(c)], var(c)) for i, c in enumerate(chosen, 1)]
    rng.shuffle(rules)
    base = sat(fact, vocab)
    w0 = frozenset(all_worlds(n)) - base
    seqs = {(w0, *tail) for tail in peel_orders(vocab, chosen, base)}
    return Theory(vocab, rules, [fact]), seqs


def commuting_ael(rng, n, k):
    """k premises, each ``c`` or ``~L ~c -> c``: one expansion, all c true;
    the sequences are an empty first class followed by every peel order."""
    vocab = pick_names(rng, n)
    chosen = rng.sample(vocab, k)
    premises = [
        (None, [], var(c)) if rng.random() < 0.5 else (None, [neg(var(c))], var(c))
        for c in chosen
    ]
    seqs = {
        (frozenset(), *tail)
        for tail in peel_orders(vocab, chosen, frozenset(all_worlds(n)))
    }
    return Premises(vocab, premises), seqs


def sequence_obj(kind, vocab, classes) -> dict:
    """The sequence JSON document for ``classes``, every weight 1."""
    return {
        "kind": kind,
        "vocab": list(vocab),
        "classes": [
            [
                {"assign": dict(zip(vocab, w)), "weight": 1}
                for w in sorted(cls)
            ]
            for cls in classes
        ],
        "provenance": [""] * len(classes),
    }


def corrupt(rng, classes, how: str):
    """A class tuple that no valid sequence has.

    ``move``: one world of an intermediate class moves to the last class,
    so the last class is no longer the fixed point. ``swap``: two adjacent
    intermediate classes trade places, so the earlier one is no longer any
    rule's full set of remaining falsifiers.
    """
    classes = list(classes)
    if how == "move":
        i = rng.randrange(1, len(classes) - 1)
        w = rng.choice(sorted(classes[i]))
        classes[i] = classes[i] - {w}
        classes[-1] = classes[-1] | {w}
    else:
        i = rng.randrange(1, len(classes) - 2)
        classes[i], classes[i + 1] = classes[i + 1], classes[i]
    return tuple(classes)


def preference_chain(classes):
    """Tail unions M_i = W_i | ... | W_l, most preferred last."""
    tails, acc = [], frozenset()
    for cls in reversed(classes):
        acc = acc | cls
        tails.append(acc)
    return tails[::-1]


# ---------------------------------------------------------------------------
# possibility: nested bases c1 & ... & c(L+1-i) at grade r_i
# ---------------------------------------------------------------------------


class NestedBase:
    """Levels i = 1..L state ``c1 & ... & c(L+1-i)`` with grades r_1 < ... < r_L.

    Class i holds the worlds with c1..c(L+1-i) true and c(L+2-i) false
    (class 1: c1..cL all true); the top class holds the worlds with c1
    false. Each class carries weight r_i - r_(i-1), the top one 1 - r_L.
    The prefix conjunction of length j holds somewhere in classes
    1..L+1-j only, so its possibility is r_(L+1-j) and its necessity 0;
    ``c1 -> c2 & ... & cj`` (j >= 2) fails only in classes with c1 true,
    the highest being class L, so its necessity is 1 - r_L.
    """

    def __init__(self, rng, n, levels):
        self.vocab = pick_names(rng, n)
        self.cs = rng.sample(self.vocab, levels)
        cuts = sorted(rng.sample(range(1, 100), levels))
        self.grades = [Fraction(c, 100) for c in cuts]
        L = levels
        self.level_formulas = [conj([var(c) for c in self.cs[: L - i]]) for i in range(L)]
        gaps = [b - a for a, b in zip([Fraction(0)] + self.grades, self.grades + [Fraction(1)])]
        classes = []
        for i in range(1, L + 1):
            assign = {c: 1 for c in self.cs[: L + 1 - i]}
            if i > 1:
                assign[self.cs[L + 1 - i]] = 0
            classes.append(fixing(self.vocab, assign))
        classes.append(fixing(self.vocab, {self.cs[0]: 0}))
        self.classes = classes
        self.weights = [gap / len(cls) for gap, cls in zip(gaps, classes)]

    def to_ps(self):
        levels = tuple(
            (frozenset([to_ps(f)]), r) for f, r in zip(self.level_formulas, self.grades)
        )
        return ps.PossibilisticKB(levels, ps.Vocabulary(self.vocab))

    def kb_text(self) -> str:
        lines = ["vocab: " + " ".join(self.vocab)]
        lines += [f"poss {r} : {text(f)}" for f, r in zip(self.level_formulas, self.grades)]
        return "\n".join(lines) + "\n"

    def queries(self, rng, count):
        """``count`` queries with their (possibility, necessity)."""
        L = len(self.cs)
        out = []
        for _ in range(count):
            j = rng.randint(1, L)
            if rng.random() < 0.5 or j == 1:
                out.append((conj([var(c) for c in self.cs[:j]]), self.grades[L - j], Fraction(0)))
            else:
                f = ("imp", var(self.cs[0]), conj([var(c) for c in self.cs[1:j]]))
                out.append((f, Fraction(1), 1 - self.grades[-1]))
        return out


def contradictory_base(rng, n):
    """``c`` at one grade and the stronger ``c & d`` at a higher one: every
    ``c & d`` world was already placed with ``c``, so no sequence exists."""
    vocab = pick_names(rng, n)
    c, d = rng.sample(vocab, 2)
    lo, hi = sorted(rng.sample(range(1, 100), 2))
    return (
        "vocab: " + " ".join(vocab) + "\n"
        f"poss {Fraction(lo, 100)} : {c}\n"
        f"poss {Fraction(hi, 100)} : {c} & {d}\n"
    )


# ---------------------------------------------------------------------------
# probability: lotteries and dense seeded spaces
# ---------------------------------------------------------------------------


def lottery_text(n: int) -> str:
    """The n-ticket lottery as a ``.prob`` file: ticket i wins in world i."""
    names = [f"p{i}" for i in range(1, n + 1)]
    lines = ["vocab: " + " ".join(names)]
    for i in range(n):
        lits = ",".join(name if j == i else "~" + name for j, name in enumerate(names))
        lines.append(f"world {lits} : 1/{n}")
    return "\n".join(lines) + "\n"


def lottery_threshold(n, m, accept: bool):
    """Threshold ``~p1..~pm`` on an n-ticket lottery.

    Step i peels one ticket of mass 1/n from (n-i+1)/n still in play, a
    ratio of 1/(n-i+1) that grows with i, so the test accepts iff
    1/(n-m+1) <= eps. The accepting eps is the exact boundary; the
    rejecting one is the next smaller unit fraction 1/(n-m+2), which
    step m-1 still meets, so the rejection comes at step m. After
    acceptance P(p_j) = 1/(n-m) for j > m and 0 for j <= m.
    """
    eps = Fraction(1, n - m + 1) if accept else Fraction(1, n - m + 2)
    return eps, [neg(var(f"p{i}")) for i in range(1, m + 1)]


def accepted_orders(cands, t, maxlen):
    """On a lottery every step's ratio depends only on its position, so
    with eps = 1/(n-t+1) exactly the orders of length <= t are accepted."""
    return {
        order
        for length in range(1, min(t, maxlen) + 1)
        for order in itertools.permutations(cands, length)
    }


def count_orders(c, t, maxlen):
    return sum(math.perm(c, length) for length in range(1, min(t, maxlen) + 1))


_SHAPES = ("lit", "or", "imp", "and")


def random_formula(rng, vocab, shape):
    a, b = rng.sample(vocab, 2)
    x, y = lit(a, rng.randint(0, 1)), lit(b, rng.randint(0, 1))
    return x if shape == "lit" else (shape, x, y)


class DenseSpace:
    """Every world over n constants with a seeded positive integer weight.

    Conditional probabilities are ratios of weight sums over the worlds
    the condition formulas keep; all weights are positive and the
    formulas are satisfiable, so every ratio is defined.
    """

    def __init__(self, rng, n):
        self.vocab = pick_names(rng, n)
        self.worlds = all_worlds(n)
        raw = [rng.randint(1, 9) for _ in self.worlds]
        total = sum(raw)
        self.weight = {w: Fraction(r, total) for w, r in zip(self.worlds, raw)}

    def to_ps(self):
        vocab = ps.Vocabulary(self.vocab)
        return ps.SampleSpace(
            tuple(
                ps.World(vocab, [n for n, b in zip(self.vocab, w) if b], self.weight[w])
                for w in self.worlds
            ),
            vocab,
        )

    def kb_text(self) -> str:
        lines = ["vocab: " + " ".join(self.vocab)]
        for w in self.worlds:
            lits = ",".join(n if b else "~" + n for n, b in zip(self.vocab, w))
            lines.append(f"world {lits} : {self.weight[w]}")
        return "\n".join(lines) + "\n"

    def formulas(self, rng, count):
        return [random_formula(rng, self.vocab, _SHAPES[i % 4]) for i in range(count)]

    def keep(self, worlds, f):
        return [w for w in worlds if holds(f, dict(zip(self.vocab, w)))]

    def classes(self, conds):
        """Conditioning classes: falsifiers of each formula in turn, then the rest."""
        remaining, out = self.worlds, []
        for f in conds:
            kept = self.keep(remaining, f)
            out.append(frozenset(remaining) - frozenset(kept))
            remaining = kept
        out.append(frozenset(remaining))
        return out

    def step_ratios(self, conds):
        """Per thresholding step, the peeled mass over the mass still in play."""
        classes = self.classes(conds)
        tails = [sum(self.weight[w] for c in classes[i:] for w in c) for i in range(len(conds))]
        return [sum(self.weight[w] for w in c) / t for c, t in zip(classes, tails)]

    def ratio(self, pool, psi) -> Fraction:
        total = sum(self.weight[w] for w in pool)
        return sum(self.weight[w] for w in self.keep(pool, psi)) / total

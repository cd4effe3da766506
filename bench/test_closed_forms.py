"""Self-test of the benchmark's expected answers.

The workloads check partseq against answers derived by hand in
``families.py``. Here those derivations are checked, at sizes of at most
three constants, against the brute-force oracles in ``tests/genkit.py``,
which share only the formula evaluator with the engines. Run with

    python3 -m pytest bench -q

It is not part of the tier-1 suite (``testpaths`` names ``tests`` only).
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import families as fam  # noqa: E402
import genkit  # noqa: E402
from partseq import World, conjoin, enumerate_worlds, evaluate, lottery_space  # noqa: E402

SEEDS = range(6)


def _bits(worlds, vocab):
    return frozenset(fam.world_bits(w, vocab) for w in worlds)


def _ps_worlds(spec):
    obj = spec.to_ps()
    return obj, enumerate_worlds(obj.vocab)


def _world(vocab_obj, bits):
    return World(vocab_obj, [n for n, b in zip(vocab_obj.names, bits) if b])


def _classes_ps(vocab_obj, classes):
    return [frozenset(_world(vocab_obj, w) for w in cls) for cls in classes]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "family, sizes",
    [
        ("chain", (1, 1)), ("chain", (2, 2)), ("chain", (3, 2)), ("chain", (3, 3)),
        ("rivals", (1, 0)), ("rivals", (1, 2)), ("rivals", (2, 0)), ("rivals", (2, 1)),
        ("prereq", (2, 1)), ("prereq", (3, 0)),
        ("noext", (1,)), ("noext", (2,)), ("noext", (3,)),
    ],
)
def test_default_extensions_match_oracle(family, sizes, seed):
    spec, expected = fam.SEARCH_FAMILIES[family](random.Random(seed), *sizes)
    theory, worlds = _ps_worlds(spec)
    found = genkit.brute_force_default_last_classes(theory, worlds)
    assert {_bits(ws, spec.vocab) for ws in found} == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sizes", [(1, 0), (1, 1)])
def test_ael_expansions_match_oracle(sizes, seed):
    spec, expected = fam.ael_choices(random.Random(seed), *sizes)
    premises, worlds = _ps_worlds(spec)
    found = genkit.brute_force_ael_last_classes(premises, worlds)
    assert {_bits(ws, spec.vocab) for ws in found} == expected


def _valid_peel_sequences(ok, spec, obj, ts, first, start):
    """Every sequence the oracle accepts whose intermediate classes are
    non-empty peels by some conclusion (the shapes builders emit)."""
    items = obj.rules if hasattr(obj, "rules") else obj.formulas
    conclusions = [item.gamma for item in items]
    found = set()

    def grow(remaining, classes):
        if ok(obj, classes + [remaining], ts):
            found.add(tuple(classes + [remaining]))
        for g in conclusions:
            peel = remaining - ts.sat(g)
            if peel:
                grow(remaining - peel, classes + [peel])

    grow(start, [first])
    return {tuple(_bits(c, spec.vocab) for c in seq) for seq in found}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2)])
def test_commuting_default_sequences_are_the_peel_orders(n, k, seed):
    rng = random.Random(seed)
    spec, expected = fam.commuting_default(rng, n, k)
    theory, worlds = _ps_worlds(spec)
    ts = genkit._TruthSets(worlds)
    fact_sat = ts.sat(conjoin(theory.facts))
    got = _valid_peel_sequences(
        genkit._default_sequence_ok, spec, theory, ts, ts.worlds - fact_sat, fact_sat
    )
    assert got == expected
    assert len(expected) == len(list(itertools.permutations(range(k))))
    for how in ("move", "swap") if k >= 2 else ("move",):
        bad = fam.corrupt(rng, next(iter(expected)), how)
        assert not genkit._default_sequence_ok(theory, _classes_ps(theory.vocab, bad), ts)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3)])
def test_commuting_ael_sequences_are_the_peel_orders(n, k, seed):
    rng = random.Random(seed)
    spec, expected = fam.commuting_ael(rng, n, k)
    premises, worlds = _ps_worlds(spec)
    ts = genkit._TruthSets(worlds)
    got = _valid_peel_sequences(
        genkit._ael_sequence_ok, spec, premises, ts, frozenset(), ts.worlds
    )
    assert got == expected
    for how in ("move", "swap"):
        bad = fam.corrupt(rng, next(iter(expected)), how)
        assert not genkit._ael_sequence_ok(premises, _classes_ps(premises.vocab, bad), ts)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("accept", [True, False])
def test_lottery_threshold_boundary(n, m, accept):
    if m >= n:
        pytest.skip("needs a ticket left after conditioning")
    space = lottery_space(n)
    eps, conds = fam.lottery_threshold(n, m, accept)
    phis = [fam.to_ps(f) for f in conds]
    first_failure = genkit.stepwise_threshold_accepts(space, eps, phis)
    assert first_failure == (None if accept else m)
    for j in range(1, n + 1):
        expected = Fraction(1, n - m) if j > m else Fraction(0)
        assert genkit.direct_cond_prob(space, phis, fam.to_ps(fam.var(f"p{j}"))) == expected


@pytest.mark.parametrize("c, t", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_accepted_orders_match_stepwise_oracle(c, t):
    n = 3
    space = lottery_space(n)
    eps = Fraction(1, n - t + 1)
    names = [f"p{i}" for i in range(1, c + 1)]
    brute = {
        order
        for length in range(1, c + 1)
        for order in itertools.permutations(names, length)
        if genkit.stepwise_threshold_accepts(
            space, eps, [fam.to_ps(fam.neg(fam.var(x))) for x in order]
        )
        is None
    }
    assert fam.accepted_orders(names, t, c) == brute
    assert fam.count_orders(c, t, c) == len(brute)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_ratios_match_direct_probability(seed):
    rng = random.Random(seed)
    space = fam.DenseSpace(rng, 3)
    obj = space.to_ps()
    *conds, psi = space.formulas(rng, 3)
    classes = space.classes(conds)
    if not classes[-1]:
        pytest.skip("conditions exclude every world")
    expected = genkit.direct_cond_prob(obj, [fam.to_ps(f) for f in conds], fam.to_ps(psi))
    assert space.ratio(classes[-1], psi) == expected
    pool1 = space.keep(space.worlds, conds[0])
    assert space.ratio(pool1, psi) == genkit.direct_cond_prob(obj, [fam.to_ps(conds[0])], fam.to_ps(psi))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, levels", [(2, 1), (2, 2), (3, 2), (3, 3)])
def test_nested_base_classes_and_measures(n, levels, seed):
    """Classes from direct level supports; measures from their definition."""
    base = fam.NestedBase(random.Random(seed), n, levels)
    kb = base.to_ps()
    worlds = enumerate_worlds(kb.vocab)
    placed, classes = set(), []
    for formulas, _ in kb.levels:
        support = {w for w in worlds if w not in placed and any(evaluate(f, w) for f in formulas)}
        classes.append(frozenset(support))
        placed |= support
    classes.append(frozenset(w for w in worlds if w not in placed))
    assert [_bits(c, base.vocab) for c in classes] == base.classes
    gaps = [b - a for a, b in zip((0, *kb.values), (*kb.values, 1))]
    assert [g / len(c) for g, c in zip(gaps, classes)] == base.weights

    def pi(phi):
        top = max((i for i, c in enumerate(classes) if any(evaluate(phi, w) for w in c)), default=None)
        return Fraction(0) if top is None else sum(gaps[: top + 1], Fraction(0))

    for f, possibility, necessity in base.queries(random.Random(seed), 6):
        phi = fam.to_ps(f)
        assert pi(phi) == possibility
        assert 1 - pi(fam.to_ps(fam.neg(f))) == necessity


@pytest.mark.parametrize("seed", SEEDS)
def test_contradictory_base_has_an_unsupported_level(seed):
    from partseq import parse_kb

    kb = parse_kb(fam.contradictory_base(random.Random(seed), 3), "poss").body
    worlds = enumerate_worlds(kb.vocab)
    (low, _), (high, _) = kb.levels
    placed = {w for w in worlds if any(evaluate(f, w) for f in low)}
    assert not any(evaluate(f, w) for f in high for w in worlds if w not in placed)

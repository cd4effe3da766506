"""The three workloads, each a fixed mix of seeded queries.

A workload is a list of rounds; each round is one instance of the whole
mix, drawn afresh from the seed. A query has a ``run(tracer, layers)``
that makes the timed calls and a ``check(out)`` that compares what came
back with the answer the family forces (``None`` when it matches, else
the reason). With ``layers`` on, queries also make the calls needed for
per-layer figures: probes, and in ``roundtrip`` the chain of library
calls behind each CLI command.

The mix (families and sizes, in order) is the same for every seed; the
seed picks names, polarities, weights and which constants are used. A
round's queries may depend on the ones before them in the round (the
roundtrip checks read the sequences written after ``sequences``), so a
round is always run whole and in order.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import partseq as ps
from partseq import autoepistemic as ael
from partseq import cli, defaults, probability, sequences
from partseq.errors import BelowThresholdError

import families as fam


class Query:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _probe(tr, vocab, formulas):
    """models() of each formula over all worlds of ``vocab``."""
    worlds = tr.probe("logic.enumerate_worlds", ps.enumerate_worlds, vocab)
    tr.count("logic.worlds", len(worlds))
    for f in formulas:
        tr.probe("logic.models", ps.models, f, worlds)
        tr.count("logic.models_evals", len(worlds))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# (family, sizes): chain (n constants, k rules), rivals (m pairs, u unused),
# prereq (k rules, u unused), noext (k constants), ael (g groups, u unused).
# Light and heavy entries alternate so a run cut mid-mix sees the same blend.
SEARCH_MIX = (
    ("chain", 4, 4), ("rivals", 4, 3), ("ael", 2, 0), ("chain", 7, 7),
    ("rivals", 2, 3), ("noext", 6), ("ael", 3, 0), ("prereq", 6, 1),
    ("chain", 5, 5), ("noext", 7), ("rivals", 3, 2), ("chain", 8, 6),
    ("ael", 2, 2), ("rivals", 4, 2), ("noext", 4), ("prereq", 4, 1),
    ("chain", 6, 6), ("ael", 3, 2), ("rivals", 3, 3), ("noext", 5),
    ("prereq", 5, 1), ("rivals", 4, 0), ("ael", 4, 0),
)
# Rounds drawn, so that the quantiles rest on many instances of each size
# and not on which single instance a seed happens to give.
SEARCH_ROUNDS = 8


def _search_query(rng, family, *sizes):
    spec, expected = fam.SEARCH_FAMILIES[family](rng, *sizes)
    obj = spec.to_ps()
    formulas = [fam.to_ps(f) for f in spec.formulas()]
    vocab = spec.vocab
    if family == "ael":
        found = "autoepistemic.expansions"

        def search_and_verify(tr):
            kernels = tr.call("autoepistemic.stable_expansions", ael.stable_expansions, obj)
            again = [
                tr.call("autoepistemic.omega_operator", ael.omega_operator, obj, k).worlds == k.worlds
                for k in kernels
            ]
            return kernels, again

    else:
        found = "defaults.extensions"

        def search_and_verify(tr):
            kernels = tr.call("defaults.extensions", defaults.extensions, obj)
            again = [
                tr.call("defaults.gamma_operator", defaults.gamma_operator, obj, k.worlds) == k.worlds
                for k in kernels
            ]
            return kernels, again

    def run(tr, layers):
        kernels, again = search_and_verify(tr)
        tr.count(found, len(kernels))
        if layers:
            _probe(tr, obj.vocab, formulas)
        return kernels, again

    def check(out):
        kernels, again = out
        if not all(again):
            return "a kernel is not a fixed point of its operator"
        got = [frozenset(fam.world_bits(w, vocab) for w in k.worlds) for k in kernels]
        if len(got) != len(expected) or set(got) != expected:
            return f"{len(got)} kernels, expected {len(expected)} (or different ones)"
        return None

    return Query(f"{family} {'/'.join(map(str, sizes))}", run, check)


def search(rng, workdir):
    return [[_search_query(rng, *entry) for entry in SEARCH_MIX] for _ in range(SEARCH_ROUNDS)]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse(tr, path, kind):
    text = Path(path).read_text()
    tr.count("kbformats.lines", text.count("\n"))
    return tr.call("kbformats.parse_kb", ps.parse_kb, text, kind)


def _load_seq(tr, path):
    text = Path(path).read_text()
    tr.count("sequences.json_bytes", len(text))
    return tr.call("sequences.sequence_from_json", ps.sequence_from_json, text)


def _render(tr, seqs):
    objs = [tr.call("sequences.sequence_to_obj", sequences.sequence_to_obj, s) for s in seqs]
    text = tr.call("sequences.render_json", sequences.render_json, objs)
    tr.count("sequences.json_bytes", len(text))
    return text


_FILES = (".dl", ".ael", ".prob", ".poss", ".json")


class _Cmd:
    """One CLI command: argv, expected exit code, a check of the JSON
    envelope, and the library chain that does the same work."""

    def __init__(self, argv, code, check_env, chain, expect_chain):
        self.argv = ["--json", *argv]
        self.span = "cli." + (argv[0] if argv[0] in ("explain", "worlds") else "_".join(argv[:2]))
        self.name = " ".join([self.span[4:]] + [Path(a).name for a in argv if Path(a).suffix in _FILES])
        self.code = code
        self.check_env = check_env
        self.chain = chain
        self.expect_chain = expect_chain
        self.after = None  # called with the envelope once checked


def _cmd_query(cmd: _Cmd):
    def run(tr, layers):
        chained = (cmd.chain(tr),) if layers else None
        return tr.call(cmd.span, _capture, cmd.argv), chained

    def check(out):
        (code, stdout, stderr), chained = out
        if "Traceback" in stderr:
            return "traceback on stderr"
        if code != cmd.code:
            return f"exit code {code}, expected {cmd.code}: {stderr.strip()[:200]}"
        env = json.loads(stdout, parse_float=Fraction)
        problem = cmd.check_env(env)
        if problem:
            return problem
        if chained is not None and chained[0] != cmd.expect_chain:
            return f"library chain gave {chained[0]!r}, expected {cmd.expect_chain!r}"
        if cmd.after is not None:
            cmd.after(env)
        return None

    return Query(cmd.name, run, check)


def _seq_sets(env_seqs, vocab):
    return {tuple(frozenset(fam.obj_bits(w, vocab) for w in cls) for cls in s["classes"]) for s in env_seqs}


def _write_seq(path, obj):
    Path(path).write_text(json.dumps(obj, default=str))


def _fixed_point_cmds(rng, workdir, tag, kind, spec, expected):
    """sequences, a check of every emitted sequence, explain, and two
    checks of corrupted sequences, for one theory or premise set."""
    group, ext = ("default", ".dl") if kind == "default" else ("ael", ".ael")
    layer = "defaults" if kind == "default" else "autoepistemic"
    seq_kind = "default" if kind == "default" else "autoepistemic"
    build = defaults.build_default_sequences if kind == "default" else ael.build_ael_sequences
    checker = defaults.check_default_sequence if kind == "default" else ael.check_ael_sequence
    vocab = spec.vocab
    kb = str(workdir / f"{tag}{ext}")
    Path(kb).write_text(spec.kb_text())
    formulas = [fam.to_ps(f) for f in spec.formulas()]
    count = len(expected)

    def seq_chain(tr):
        doc = _parse(tr, kb, kind)
        seqs = tr.call(f"{layer}.{build.__name__}", build, doc.body)
        tr.count(f"{layer}.sequences", len(seqs))
        _render(tr, seqs)
        _probe(tr, doc.vocab, formulas)
        return len(seqs)

    def seq_env(env):
        if env["result"]["count"] != count:
            return f"count {env['result']['count']}, expected {count}"
        if _seq_sets(env["sequences"], vocab) != expected:
            return "emitted sequences differ from the peel orders"
        return None

    seq_files = [str(workdir / f"{tag}.seq{i}.json") for i in range(count)]
    seq_cmd = _Cmd([group, "sequences", kb], 0, seq_env, seq_chain, count)

    def write_emitted(env):
        for path, obj in zip(seq_files, env["sequences"]):
            _write_seq(path, obj)

    seq_cmd.after = write_emitted

    def check_cmd(path, clean):
        def chain(tr):
            doc = _parse(tr, kb, kind)
            seq = _load_seq(tr, path)
            tr.probe(
                "sequences.validate_structure",
                ps.validate_structure,
                seq,
                ps.enumerate_worlds(doc.vocab),
            )
            found = tr.call(f"{layer}.{checker.__name__}", checker, doc.body, seq)
            tr.count(f"{layer}.check_violations_{'clean' if clean else 'corrupted'}", len(found))
            return bool(found)

        def env_ok(env):
            res = env["result"]
            if res["ok"] != clean or bool(res["violations"]) == clean:
                return f"check said ok={res['ok']} with {len(res['violations'])} violations"
            return None

        return _Cmd([group, "check", kb, path], 0 if clean else 1, env_ok, chain, not clean)

    cmds = [seq_cmd] + [check_cmd(p, True) for p in seq_files]
    if kind == "default":
        cmds.append(_worlds_cmd(kb, kind, fam.all_worlds(len(vocab)), vocab))

    ordered = sorted(expected, key=lambda cl: [sorted(c) for c in cl])
    shown = rng.choice(ordered)
    shown_path = str(workdir / f"{tag}.shown.json")
    _write_seq(shown_path, fam.sequence_obj(seq_kind, vocab, shown))
    chain_expected = fam.preference_chain(shown)

    def explain_chain(tr):
        seq = _load_seq(tr, shown_path)
        view = tr.call("sequences.preference_view", ps.preference_view, seq)
        _render(tr, [seq])
        return len(view.models)

    def explain_env(env):
        got = [frozenset(fam.obj_bits(w, vocab) for w in m) for m in env["result"]["preference_chain"]]
        return None if got == chain_expected else "preference chain differs"

    cmds.append(_Cmd(["explain", shown_path], 0, explain_env, explain_chain, len(shown)))
    for how in ("move", "swap"):
        bad = fam.corrupt(rng, rng.choice(ordered), how)
        path = str(workdir / f"{tag}.{how}.json")
        _write_seq(path, fam.sequence_obj(seq_kind, vocab, bad))
        cmds.append(check_cmd(path, False))
    return cmds


def _poss_cmds(rng, workdir, tag, n, levels):
    base = fam.NestedBase(rng, n, levels)
    vocab = base.vocab
    kb = str(workdir / f"{tag}.poss")
    Path(kb).write_text(base.kb_text())
    seq_path = str(workdir / f"{tag}.seq.json")

    def build_chain(tr):
        doc = _parse(tr, kb, "poss")
        built = tr.call("possibility.build_poss_sequence", ps.build_poss_sequence, doc.body)
        _render(tr, [built])
        return len(built.classes)

    def build_env(env):
        seq = env["sequences"][0]
        classes = [frozenset(fam.obj_bits(w, vocab) for w in cls) for cls in seq["classes"]]
        weights = [{Fraction(w["weight"]) for w in cls} for cls in seq["classes"]]
        if classes != base.classes or weights != [{w} for w in base.weights]:
            return "possibility classes or weights differ"
        return None

    build = _Cmd(["poss", "build", kb], 0, build_env, build_chain, levels + 1)
    build.after = lambda env: _write_seq(seq_path, env["sequences"][0])
    cmds = [build]
    for f, pi, nec in base.queries(rng, 2):
        formula = fam.text(f)

        def query_chain(tr, formula=formula):
            doc = _parse(tr, kb, "poss")
            phi = tr.call("logic.parse_formula", ps.parse_formula, formula, doc.vocab)
            built = tr.call("possibility.build_poss_sequence", ps.build_poss_sequence, doc.body)
            _render(tr, [built])
            return (
                tr.call("possibility.possibility", ps.possibility, built, phi),
                tr.call("possibility.necessity", ps.necessity, built, phi),
            )

        def query_env(env, pi=pi, nec=nec):
            res = env["result"]
            got = (Fraction(res["possibility"]), Fraction(res["necessity"]))
            return None if got == (pi, nec) else f"measures {got}, expected {(pi, nec)}"

        cmds.append(_Cmd(["poss", "query", kb, "--query", formula], 0, query_env, query_chain, (pi, nec)))

    def check_chain(tr):
        doc = _parse(tr, kb, "poss")
        seq = _load_seq(tr, seq_path)
        return len(tr.call("possibility.check_poss_sequence", ps.check_poss_sequence, doc.body, seq))

    def check_env(env):
        return None if env["result"]["ok"] else f"violations {env['result']['violations']}"

    cmds.append(_Cmd(["poss", "check", kb, seq_path], 0, check_env, check_chain, 0))

    bad = str(workdir / f"{tag}.bad.poss")
    Path(bad).write_text(fam.contradictory_base(rng, n))

    def bad_chain(tr):
        doc = _parse(tr, bad, "poss")
        built = tr.call("possibility.build_poss_sequence", ps.build_poss_sequence, doc.body)
        return isinstance(built, ps.InconsistencyReport)

    def bad_env(env):
        return None if env["result"]["consistent"] is False else "contradictory base accepted"

    cmds.append(_Cmd(["poss", "build", bad], 1, bad_env, bad_chain, True))
    return cmds


def _formulas(tr, doc, fs):
    return [tr.call("logic.parse_formula", ps.parse_formula, fam.text(f), doc.vocab) for f in fs]


def _conds_argv(conds):
    return [a for f in conds for a in ("--on", fam.text(f))]


def _threshold_cmd(kb, eps, conds, accept, step):
    """``prob threshold``, expected to accept, or to reject at ``step``."""

    def chain(tr):
        doc = _parse(tr, kb, "prob")
        phis = _formulas(tr, doc, conds)
        try:
            seq = tr.call("probability.threshold", probability.threshold, doc.body, eps, phis)
        except BelowThresholdError as exc:
            tr.count("probability.threshold_rejected")
            return exc.step
        _render(tr, [seq])
        return None

    def env_ok(env):
        res = env["result"]
        if res["accepted"] != accept or (not accept and res["step"] != step):
            return f"threshold result {res}, expected accepted={accept} (rejection at step {step})"
        return None

    argv = ["prob", "threshold", kb, "--eps", str(eps), *_conds_argv(conds)]
    return _Cmd(argv, 0 if accept else 1, env_ok, chain, None if accept else step)


def _lottery_cmds(rng, workdir, tag, n, m):
    kb = str(workdir / f"{tag}.prob")
    Path(kb).write_text(fam.lottery_text(n))
    j = rng.randint(m + 1, n)
    cmds = []
    for accept in (True, False):
        eps, conds = fam.lottery_threshold(n, m, accept)
        cmds.append(_threshold_cmd(kb, eps, conds, accept, m))

        def query_chain(tr, eps=eps, conds=conds):
            doc = _parse(tr, kb, "prob")
            phis = _formulas(tr, doc, conds)
            psi = tr.call("logic.parse_formula", ps.parse_formula, f"p{j}", doc.vocab)
            try:
                seq = tr.call("probability.threshold", probability.threshold, doc.body, eps, phis)
            except BelowThresholdError:
                tr.count("probability.threshold_rejected")
                return None
            value = tr.call("probability.cond_prob", probability.cond_prob, seq, psi)
            _render(tr, [seq])
            return value

        def query_env(env, accept=accept):
            res = env["result"]
            if res["defined"] != accept:
                return f"query defined={res['defined']}, expected {accept}"
            if accept and Fraction(res["value"]) != Fraction(1, n - m):
                return f"P(p{j}) = {res['value']}, expected 1/{n - m}"
            return None

        argv = ["prob", "query", kb, "--eps", str(eps), *_conds_argv(conds), "--query", f"p{j}"]
        cmds.append(
            _Cmd(argv, 0 if accept else 1, query_env, query_chain, Fraction(1, n - m) if accept else None)
        )
    conds = fam.lottery_threshold(n, m, True)[1]

    def cond_chain(tr):
        doc = _parse(tr, kb, "prob")
        phis = _formulas(tr, doc, conds)
        seq = tr.call("probability.condition", probability.condition, doc.body, phis)
        _render(tr, [seq])
        return [len(c) for c in seq.classes]

    sizes = [1] * m + [n - m]

    def cond_env(env):
        got = [len(c) for c in env["sequences"][0]["classes"]]
        return None if got == sizes else f"class sizes {got}, expected {sizes}"

    cmds.append(_Cmd(["prob", "condition", kb, *_conds_argv(conds)], 0, cond_env, cond_chain, sizes))
    return cmds


def _dense_cmds(rng, workdir, tag, n):
    space = fam.DenseSpace(rng, n)
    vocab = space.vocab
    kb = str(workdir / f"{tag}.prob")
    Path(kb).write_text(space.kb_text())
    conds, psi = _satisfiable_conds(rng, space, 2)
    classes = space.classes(conds)
    value = space.ratio(classes[-1], psi)

    def cond_chain(tr):
        doc = _parse(tr, kb, "prob")
        phis = _formulas(tr, doc, conds)
        seq = tr.call("probability.condition", probability.condition, doc.body, phis)
        _render(tr, [seq])
        return len(seq.classes)

    def cond_env(env):
        got = [frozenset(fam.obj_bits(w, vocab) for w in c) for c in env["sequences"][0]["classes"]]
        return None if got == classes else "conditioning classes differ"

    def query_chain(tr):
        doc = _parse(tr, kb, "prob")
        phis = _formulas(tr, doc, conds)
        q = tr.call("logic.parse_formula", ps.parse_formula, fam.text(psi), doc.vocab)
        seq = tr.call("probability.condition", probability.condition, doc.body, phis)
        got = tr.call("probability.cond_prob", probability.cond_prob, seq, q)
        _render(tr, [seq])
        return got

    def query_env(env):
        got = Fraction(env["result"]["value"])
        return None if got == value else f"value {got}, expected {value}"

    # eps at the largest step ratio accepts; just below it, the first step
    # with that ratio rejects (ratios here differ by far more than 1e-9)
    ratios = space.step_ratios(conds)
    top = max(ratios)
    first_top = ratios.index(top) + 1

    return [
        _worlds_cmd(kb, "prob", space.worlds, vocab),
        _threshold_cmd(kb, top, conds, True, first_top),
        _threshold_cmd(kb, top - Fraction(1, 10**9), conds, False, first_top),
        _Cmd(["prob", "condition", kb, *_conds_argv(conds)], 0, cond_env, cond_chain, len(classes)),
        _Cmd(
            ["prob", "query", kb, *_conds_argv(conds), "--query", fam.text(psi)],
            0,
            query_env,
            query_chain,
            value,
        ),
    ]


def _worlds_cmd(kb, kind, expected_bits, vocab):
    def chain(tr):
        doc = _parse(tr, kb, kind)
        if kind == "prob":
            ws = list(doc.body.worlds)
        else:
            ws = tr.call("logic.enumerate_worlds", ps.enumerate_worlds, doc.vocab)
        text = tr.call(
            "sequences.render_json", lambda: sequences.render_json([sequences.world_to_obj(w) for w in ws])
        )
        tr.count("sequences.json_bytes", len(text))
        return len(ws)

    def env_ok(env):
        got = [fam.obj_bits(w, vocab) for w in env["result"]["worlds"]]
        return None if got == expected_bits else "world list differs"

    return _Cmd(["worlds", kb], 0, env_ok, chain, len(expected_bits))


def _satisfiable_conds(rng, space, count):
    """``count`` condition formulas that keep some worlds, and a query."""
    while True:
        *conds, psi = space.formulas(rng, count + 1)
        if space.classes(conds)[-1]:
            return conds, psi


# (kind, sizes): default / ael (n constants, k commuting rules), poss
# (n constants, levels), lottery (tickets, conditions), dense (constants).
ROUNDTRIP_MIX = (
    ("default", 5, 3), ("ael", 5, 3), ("poss", 6, 3), ("lottery", 120, 3),
    ("default", 6, 4), ("dense", 5), ("ael", 6, 4), ("lottery", 200, 4),
    ("default", 7, 5), ("poss", 7, 4), ("ael", 7, 5), ("dense", 6),
)
# As SEARCH_ROUNDS: most queries are the checks of the 5-rule theories'
# 120 orders, so the median rests on how many of those theories there are.
ROUNDTRIP_ROUNDS = 4


def roundtrip(rng, workdir):
    return [_roundtrip_round(rng, workdir, r) for r in range(ROUNDTRIP_ROUNDS)]


def _roundtrip_round(rng, workdir, r):
    cmds = []
    for i, (kind, *sizes) in enumerate(ROUNDTRIP_MIX):
        tag = f"{kind}{r}_{i}"
        if kind in ("default", "ael"):
            make = fam.commuting_default if kind == "default" else fam.commuting_ael
            spec, seqs = make(rng, *sizes)
            cmds += _fixed_point_cmds(rng, workdir, tag, kind, spec, seqs)
        elif kind == "poss":
            cmds += _poss_cmds(rng, workdir, tag, *sizes)
        elif kind == "lottery":
            cmds += _lottery_cmds(rng, workdir, tag, *sizes)
        else:
            cmds += _dense_cmds(rng, workdir, tag, *sizes)
    return [_cmd_query(c) for c in cmds]


# ---------------------------------------------------------------------------
# weighted
# ---------------------------------------------------------------------------


def _lottery_query(rng, n, m, accept):
    eps, conds = fam.lottery_threshold(n, m, accept)
    phis = [fam.to_ps(f) for f in conds]
    j = rng.randint(m + 1, n)
    psi = ps.Const(f"p{j}")

    def run(tr, layers):
        space = tr.call("probability.lottery_space", probability.lottery_space, n)
        try:
            seq = tr.call("probability.threshold", probability.threshold, space, eps, phis)
        except BelowThresholdError as exc:
            tr.count("probability.threshold_rejected")
            return space, None, exc.step
        value = tr.call("probability.threshold_prob", probability.threshold_prob, space, eps, phis, psi)
        return space, seq, value

    def check(out):
        space, seq, value = out
        if len(space.worlds) != n or any(
            w.weight != Fraction(1, n) or len(w.true_names) != 1 for w in space.worlds
        ):
            return "lottery space is not n single-winner worlds of mass 1/n"
        if accept:
            if seq is None:
                return f"rejected at step {value}, expected acceptance"
            if len(seq.classes) != m + 1 or value != Fraction(1, n - m):
                return f"P(p{j}) = {value}, expected 1/{n - m}"
        elif seq is not None or value != m:
            return f"accepted or rejected at the wrong step ({value}), expected step {m}"
        return None

    return Query(f"lottery {n}/{m} {'accept' if accept else 'reject'}", run, check)


def _orders_query(rng, n, c, t):
    tickets = rng.sample(range(1, n + 1), c)
    cands = [ps.Not(ps.Const(f"p{i}")) for i in tickets]
    label = {phi: f"p{i}" for phi, i in zip(cands, tickets)}
    space = probability.lottery_space(n)
    eps = Fraction(1, n - t + 1)
    expected = fam.accepted_orders([f"p{i}" for i in tickets], t, c)

    def run(tr, layers):
        found = tr.call(
            "probability.enumerate_threshold_orders",
            probability.enumerate_threshold_orders,
            space,
            eps,
            cands,
            c,
        )
        tr.count("probability.orders_accepted", len(found))
        return found

    def check(found):
        got = {tuple(label[phi] for phi in order) for order in found}
        if len(found) != fam.count_orders(c, t, c) or got != expected:
            return f"{len(found)} accepted orders, expected {fam.count_orders(c, t, c)}"
        return None

    return Query(f"orders {n}/{c}/{t}", run, check)


def _dense_query(rng, n):
    space = fam.DenseSpace(rng, n)
    obj = space.to_ps()
    conds, psi = _satisfiable_conds(rng, space, 2)
    conds3 = conds + [space.formulas(rng, 1)[0]]
    while not space.classes(conds3)[-1]:
        conds3[2] = space.formulas(rng, 1)[0]
    classes = space.classes(conds3)
    phis = [fam.to_ps(f) for f in conds3]
    q = fam.to_ps(psi)
    pool1 = space.keep(space.worlds, conds3[0])
    expected = (space.ratio(classes[-1], psi), space.ratio(pool1, psi))

    def run(tr, layers):
        seq = tr.call("probability.condition", probability.condition, obj, phis[:2])
        seq = tr.call("probability.extend", probability.extend, seq, phis[2])
        return seq, (
            tr.call("probability.cond_prob", probability.cond_prob, seq, q),
            tr.call("probability.persistent_prob", probability.persistent_prob, seq, q, 1),
        )

    def check(out):
        seq, values = out
        got = [frozenset(fam.world_bits(w, space.vocab) for w in c) for c in seq.classes]
        if got != classes:
            return "conditioning classes differ"
        return None if values == expected else f"probabilities {values}, expected {expected}"

    return Query(f"dense {n}", run, check)


def _poss_query(rng, n, levels):
    base = fam.NestedBase(rng, n, levels)
    kb = base.to_ps()
    queries = [(fam.to_ps(f), pi, nec) for f, pi, nec in base.queries(rng, 2)]

    def run(tr, layers):
        seq = tr.call("possibility.build_poss_sequence", ps.build_poss_sequence, kb)
        found = tr.call("possibility.check_poss_sequence", ps.check_poss_sequence, kb, seq)
        measures = [
            (
                tr.call("possibility.possibility", ps.possibility, seq, f),
                tr.call("possibility.necessity", ps.necessity, seq, f),
            )
            for f, _, _ in queries
        ]
        return seq, found, measures

    def check(out):
        seq, found, measures = out
        if found:
            return f"built sequence fails its check: {found[0]}"
        got = [frozenset(fam.world_bits(w, base.vocab) for w in c) for c in seq.classes]
        weights = [{w.weight for w in c} for c in seq.classes]
        if got != base.classes or weights != [{w} for w in base.weights]:
            return "possibility classes or weights differ"
        expected = [(pi, nec) for _, pi, nec in queries]
        return None if measures == expected else f"measures {measures}, expected {expected}"

    return Query(f"poss {n}/{levels}", run, check)


# (kind, sizes): lottery (tickets, conditions, accept?), orders (tickets,
# candidates, accepted length), dense (constants), poss (constants, levels).
# Many sizes, so that neighbouring costs are close and a quantile does not
# jump when two query types trade places in the ranking.
WEIGHTED_MIX = (
    ("lottery", 300, 3, True), ("poss", 12, 3), ("dense", 8), ("lottery", 1400, 4, False),
    ("orders", 40, 3, 2), ("lottery", 600, 5, False), ("poss", 10, 4), ("lottery", 1000, 5, False),
    ("dense", 9), ("orders", 20, 5, 4), ("lottery", 400, 4, False), ("poss", 11, 3),
    ("lottery", 2000, 3, True), ("dense", 10), ("lottery", 700, 3, True), ("orders", 40, 4, 3),
    ("lottery", 1800, 5, False), ("poss", 10, 3), ("lottery", 500, 2, True), ("lottery", 1200, 3, True),
    ("orders", 30, 4, 3), ("lottery", 900, 2, True), ("poss", 11, 4), ("lottery", 800, 4, False),
    ("lottery", 1600, 2, True),
)


# As SEARCH_ROUNDS.
WEIGHTED_ROUNDS = 2


def weighted(rng, workdir):
    build = {"lottery": _lottery_query, "orders": _orders_query, "dense": _dense_query, "poss": _poss_query}
    return [[build[kind](rng, *sizes) for kind, *sizes in WEIGHTED_MIX] for _ in range(WEIGHTED_ROUNDS)]


WORKLOADS = {"search": search, "roundtrip": roundtrip, "weighted": weighted}

"""Command line behaviour: outputs, exit codes, JSON envelope."""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import partseq
from partseq import (
    BelowThresholdError,
    Const,
    PartitionSequence,
    Vocabulary,
    World,
    build_ael_sequences,
    build_default_sequences,
    build_poss_sequence,
    condition,
    enumerate_worlds,
    extensions,
    format_formula,
    lottery_space,
    necessity,
    parse_kb,
    sequence_from_json,
    sequence_to_json,
    stable_expansions,
    threshold,
)
from partseq.cli import _build_parser, main
from partseq.kbformats import _FORMATS, KbDocument, serialize_kb
from partseq.logic import MAX_FORMULA_DEPTH
from partseq.possibility import InconsistencyReport
from partseq.possibility import possibility as possibility_of
from partseq.rationals import format_fraction, parse_fraction
from partseq.sequences import render_json, sequence_from_obj
from test_kbformats import ACCEPTED_LINES, LINE_TOKENS
from genkit import (
    explain_lines,
    kernel_text,
    random_default_theory,
    random_formula,
    random_possibilistic_kb,
    random_premises,
    random_space,
    sequence_lines,
    world_text,
)

RIVALS_DL = """vocab: p q
rule r1: true : M p / p
rule r2: true : M ~p / ~p
rule r3: p : M q / q
"""

SELF_DEFEATING_DL = """vocab: p
rule r1: true : M p / ~p
"""

INTROSPECTIVE_AEL = """vocab: p q
L p -> p
~L p -> q
"""

THWARTED_AEL = """vocab: p q
~L p -> q
~q
"""

WEATHER_PROB = """vocab: p q
world p,q : 0.2
world p,~q : 0.3
world ~p,q : 0.1
world ~p,~q : 0.4
"""

NESTED_POSS = """vocab: p q
poss 0.3 : p & q
poss 0.7 : p
"""

CONTRADICTORY_POSS = """vocab: p q
poss 0.3 : p
poss 0.5 : p & q
"""


@pytest.fixture
def kbdir(tmp_path):
    files = {
        "rivals.dl": RIVALS_DL,
        "selfdefeating.dl": SELF_DEFEATING_DL,
        "introspective.ael": INTROSPECTIVE_AEL,
        "thwarted.ael": THWARTED_AEL,
        "weather.prob": WEATHER_PROB,
        "nested.poss": NESTED_POSS,
        "contradictory.poss": CONTRADICTORY_POSS,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    lottery = lottery_space(100)
    (tmp_path / "lottery100.prob").write_text(
        serialize_kb(KbDocument("prob", lottery.vocab, lottery))
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaultCommands:
    def test_extensions_listed(self, kbdir, capsys):
        code, out, _ = run(capsys, "default", "extensions", kbdir / "rivals.dl")
        assert code == 0
        assert "extension 1:" in out and "extension 2:" in out

    def test_no_extension_exit_one(self, kbdir, capsys):
        code, out, _ = run(capsys, "default", "extensions", kbdir / "selfdefeating.dl")
        assert code == 1
        assert "no extension" in out

    def test_sequences_show_provenance(self, kbdir, capsys):
        code, out, _ = run(capsys, "default", "sequences", kbdir / "rivals.dl")
        assert code == 0
        assert "(from r1)" in out

    def test_no_sequences_exit_one(self, kbdir, capsys):
        code, out, _ = run(capsys, "default", "sequences", kbdir / "selfdefeating.dl")
        assert code == 1

    def test_check_accepts_own_sequences(self, kbdir, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--json", "default", "sequences", kbdir / "rivals.dl"
        )
        doc = json.loads(out, parse_float=Fraction)
        from partseq.sequences import render_json

        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(doc["sequences"][0]))
        code, out, _ = run(capsys, "default", "check", kbdir / "rivals.dl", seq_file)
        assert code == 0
        assert "ok" in out

    def test_strict_check_rejects(self, kbdir, capsys, tmp_path):
        code, out, _ = run(
            capsys, "--json", "default", "sequences", kbdir / "rivals.dl"
        )
        doc = json.loads(out, parse_float=Fraction)
        from partseq.sequences import render_json

        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(doc["sequences"][0]))
        code, out, _ = run(
            capsys, "--strict", "default", "check", kbdir / "rivals.dl", seq_file
        )
        assert code == 1
        assert "violation" in out


    def test_overlap_report_is_world_ordered_under_any_hash_seed(
        self, kbdir, capsys, tmp_path
    ):
        # class 0 also gets the last class and class 1, so worlds overlap
        code, out, _ = run(
            capsys, "--json", "default", "sequences", kbdir / "rivals.dl"
        )
        seq = json.loads(out, parse_float=Fraction)["sequences"][0]
        classes = seq["classes"]
        classes[0] = classes[0] + classes[-1] + classes[1]
        seq_file = tmp_path / "overlap.json"
        seq_file.write_text(render_json(seq))
        src = str(Path(partseq.__file__).parents[1])
        outputs = set()
        for hash_seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "partseq.cli", "default", "check",
                 str(kbdir / "rivals.dl"), str(seq_file)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 1
            outputs.add(proc.stdout)
        assert outputs == {
            "violation: disjointness [class 1]: world {~p, ~q} appears in classes 0 and 1\n"
            "violation: disjointness [class 1]: world {~p, q} appears in classes 0 and 1\n"
            "violation: disjointness [class 3]: world {p, q} appears in classes 0 and 3\n"
        }


class TestAelCommands:
    def test_expansions_listed(self, kbdir, capsys):
        code, out, _ = run(capsys, "ael", "expansions", kbdir / "introspective.ael")
        assert code == 0
        assert "expansion kernel 1:" in out

    def test_no_expansion_exit_one(self, kbdir, capsys):
        code, out, _ = run(capsys, "ael", "expansions", kbdir / "thwarted.ael")
        assert code == 1
        assert "no stable expansion" in out

    def test_note_says_what_total_belief_contradicts(self, capsys, tmp_path):
        # not believing p licenses p alone, which is consistent but believes p
        kb = tmp_path / "note.ael"
        kb.write_text("vocab: p\nL p -> false\n~L p -> p\n")
        code, out, _ = run(capsys, "ael", "expansions", kb)
        assert code == 1
        assert out == (
            "no stable expansion\n"
            "note: once everything is believed, the premises contradict each other\n"
        )

    def test_sequences(self, kbdir, capsys):
        code, out, _ = run(capsys, "ael", "sequences", kbdir / "introspective.ael")
        assert code == 0
        assert out.count("sequence") >= 2


class TestProbCommands:
    def test_condition_prints_classes(self, kbdir, capsys):
        code, out, _ = run(
            capsys, "prob", "condition", kbdir / "weather.prob", "--on", "p -> q"
        )
        assert code == 0
        assert "W0" in out and "W1" in out

    def test_query_plain_conditioning(self, kbdir, capsys):
        code, out, _ = run(
            capsys,
            "prob", "query", kbdir / "weather.prob",
            "--on", "p -> q", "--on", "p | q", "--query", "p",
        )
        assert code == 0
        assert out.strip() == "2/3"

    def test_query_with_threshold(self, kbdir, capsys):
        code, out, _ = run(
            capsys,
            "prob", "query", kbdir / "lottery100.prob",
            "--eps", "1/99", "--on", "~p1", "--on", "~p2", "--query", "p3",
        )
        assert code == 0
        assert out.strip() == "1/98"

    def test_query_takes_threshold_epsilon_contract(self, kbdir, capsys):
        # epsilon 1 accepts every step whose mass in play is not 0
        kb, on = kbdir / "weather.prob", ["--on", "p", "--on", "q"]
        code, out, _ = run(capsys, "--json", "prob", "threshold", kb, "--eps", "1", *on)
        assert code == 0
        (expected,) = json.loads(out)["sequences"]
        code, out, _ = run(capsys, "--json", "prob", "query", kb, "--eps", "1", *on, "--query", "q")
        assert code == 0
        answer = json.loads(out)
        assert answer["sequences"] == [expected]
        assert answer["result"] == {"defined": True, "value": 1}
        for command in (["threshold"], ["query", "--query", "q"]):
            code, _, err = run(capsys, "prob", *command, kb, "--eps", "-1", *on)
            assert code == 3 and err == "error: epsilon must be non-negative\n"

    def test_threshold_rejection_exit_one(self, kbdir, capsys):
        code, out, _ = run(
            capsys,
            "prob", "threshold", kbdir / "lottery100.prob",
            "--eps", "1/100", "--on", "~p1", "--on", "~p2",
        )
        assert code == 1
        assert "below threshold" in out

    def test_missing_on_is_usage_error(self, kbdir, capsys):
        code, _, err = run(capsys, "prob", "condition", kbdir / "weather.prob")
        assert code == 3


class TestPossCommands:
    def test_build(self, kbdir, capsys):
        code, out, _ = run(capsys, "poss", "build", kbdir / "nested.poss")
        assert code == 0
        assert "W2" in out

    def test_inconsistent_exit_one(self, kbdir, capsys):
        code, out, _ = run(capsys, "poss", "build", kbdir / "contradictory.poss")
        assert code == 1
        assert "p & q" in out

    def test_query(self, kbdir, capsys):
        code, out, _ = run(
            capsys, "poss", "query", kbdir / "nested.poss", "--query", "p"
        )
        assert code == 0
        assert "possibility: 0.7" in out
        assert "necessity: 0" in out

    def test_check_compares_class_totals_exactly(self, kbdir, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "poss", "build", kbdir / "nested.poss")
        doc = json.loads(out, parse_float=Fraction)["sequences"][0]
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(doc))
        assert run(capsys, "poss", "check", kbdir / "nested.poss", seq_file)[:2] == (0, "ok\n")
        doc["classes"][1][0]["weight"] += Fraction(1, 10**10)
        seq_file.write_text(render_json(doc))
        code, out, _ = run(capsys, "poss", "check", kbdir / "nested.poss", seq_file)
        assert code == 1
        assert out == (
            "violation: condition 2 [class 1]: "
            "class weight totals 4000000001/10000000000, expected 2/5\n"
        )


class TestWorldsAndExplain:
    def test_worlds_enumerates_vocabulary(self, kbdir, capsys):
        code, out, _ = run(capsys, "worlds", kbdir / "rivals.dl")
        assert code == 0
        assert out.splitlines() == [
            "{~p, ~q}",
            "{~p, q}",
            "{p, ~q}",
            "{p, q}",
        ]

    def test_worlds_of_sample_space_lists_declared(self, kbdir, capsys):
        code, out, _ = run(capsys, "worlds", kbdir / "weather.prob")
        assert code == 0
        assert "0.3" in out

    def test_explain_shows_preference_chain(self, kbdir, capsys, tmp_path):
        code, out, _ = run(capsys, "--json", "poss", "build", kbdir / "nested.poss")
        doc = json.loads(out, parse_float=Fraction)
        from partseq.sequences import render_json

        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(doc["sequences"][0]))
        code, out, _ = run(capsys, "explain", seq_file)
        assert code == 0
        assert "preference chain" in out
        assert "M2" in out

    def test_explain_renders_each_distinct_weight_once(self, capsys, tmp_path, monkeypatch):
        space = lottery_space(60)
        kb = tmp_path / "lottery.prob"
        kb.write_text(serialize_kb(KbDocument("prob", space.vocab, space)))
        _, out, _ = run(capsys, "--json", "prob", "condition", kb, "--on", "~p1", "--on", "~p2")
        seq = tmp_path / "seq.json"
        seq.write_text(render_json(json.loads(out, parse_float=Fraction)["sequences"][0]))
        calls = []
        format_fraction = partseq.sequences.format_fraction
        monkeypatch.setattr(
            partseq.sequences, "format_fraction", lambda q: calls.append(q) or format_fraction(q)
        )
        code, out, _ = run(capsys, "explain", seq)
        assert code == 0 and out.count("1/60>") == 2 * 60 + 59 + 58
        # one world_texts call a class and one a preference-chain set
        assert len(calls) <= 2 * 3


class TestTextOracle:
    """The text of every world set the CLI prints, written from masks, is
    the text ``genkit`` writes one ``World`` object at a time."""

    @staticmethod
    def said(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and not err
        return out.splitlines()

    def explained(self, capsys, tmp_path, seq):
        path = tmp_path / "seq.json"
        path.write_text(sequence_to_json(seq))
        back = sequence_from_json(path.read_text())
        assert self.said(capsys, "explain", path) == explain_lines(back)

    @staticmethod
    def kb(path, kind, body):
        path.write_text(serialize_kb(KbDocument(kind, body.vocab, body)))
        return path

    @staticmethod
    def sequences_text(seqs):
        heads = [f"sequence {i}:" for i in range(1, len(seqs) + 1)]
        return [line for seq, head in zip(seqs, heads) for line in sequence_lines(seq, head)]

    def test_random_bases(self, capsys, tmp_path):
        rng = random.Random(7071)
        for _ in range(25):
            theory = random_default_theory(rng)
            path = self.kb(tmp_path / "kb.dl", "default", theory)
            found = extensions(theory)
            kernels = [f"extension {i}: {kernel_text(k)}" for i, k in enumerate(found, 1)]
            said = self.said(capsys, "default", "extensions", path)
            assert said == (kernels or ["no extension"])
            seqs = build_default_sequences(theory)
            lines = self.sequences_text(seqs)
            missing = ["no sequence: the theory has no consistent extension"]
            assert self.said(capsys, "default", "sequences", path) == (lines or missing)
            worlds = enumerate_worlds(theory.vocab)
            assert self.said(capsys, "worlds", path) == list(map(world_text, worlds))
            for seq in seqs:
                self.explained(capsys, tmp_path, seq)

            premises = random_premises(rng)
            path = self.kb(tmp_path / "kb.ael", "ael", premises)
            found = stable_expansions(premises)
            kernels = [f"expansion kernel {i}: {kernel_text(k)}" for i, k in enumerate(found, 1)]
            said = self.said(capsys, "ael", "expansions", path)
            assert said == kernels or not kernels and said[0] == "no stable expansion"
            seqs = build_ael_sequences(premises)
            lines = self.sequences_text(seqs)
            missing = ["no sequence: the premises have no consistent stable expansion"]
            assert self.said(capsys, "ael", "sequences", path) == (lines or missing)
            for seq in seqs:
                self.explained(capsys, tmp_path, seq)

            space = random_space(rng)
            path = self.kb(tmp_path / "kb.prob", "prob", space)
            conds = [random_formula(rng, space.vocab.names, 2) for _ in range(rng.randint(1, 3))]
            on = [arg for phi in conds for arg in ("--on", format_formula(phi))]
            seq = condition(space, conds)
            assert self.said(capsys, "prob", "condition", path, *on) == sequence_lines(seq)
            try:
                lines = sequence_lines(threshold(space, Fraction(1, 2), conds))
            except BelowThresholdError as exc:
                lines = [str(exc)]
            assert self.said(capsys, "prob", "threshold", path, "--eps", "1/2", *on) == lines
            assert self.said(capsys, "worlds", path) == list(map(world_text, space.worlds))
            self.explained(capsys, tmp_path, seq)

            base = random_possibilistic_kb(rng)
            path = self.kb(tmp_path / "kb.poss", "poss", base)
            built = build_poss_sequence(base)
            if not isinstance(built, InconsistencyReport):
                assert self.said(capsys, "poss", "build", path) == sequence_lines(built)
                self.explained(capsys, tmp_path, built)

    @pytest.mark.parametrize("weights", [None, Fraction(1, 2)])
    def test_documents_over_the_world_cap(self, capsys, tmp_path, weights):
        vocab = Vocabulary([f"c{i}" for i in range(21)])
        low, high = World(vocab, []), World(vocab, vocab.names[::2])
        if weights is not None:
            low, high = low.reweighted(weights), high.reweighted(1 - weights)
        seq = PartitionSequence.of_classes([[], [low], [high]], vocab, "conditional")
        self.explained(capsys, tmp_path, seq)
        space = lottery_space(21)
        path = tmp_path / "lottery.prob"
        path.write_text(serialize_kb(KbDocument("prob", space.vocab, space)))
        assert self.said(capsys, "worlds", path) == list(map(world_text, space.worlds))


class TestClosedPipe:
    def test_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        names = [f"c{i}" for i in range(8)]
        rules = "".join(f"rule r{i}: true : M {c} / {c}\n" for i, c in enumerate(names[:5]))
        kb = tmp_path / "chain.dl"
        kb.write_text(f"vocab: {' '.join(names)}\n{rules}")
        env = dict(os.environ, PYTHONPATH=str(Path(partseq.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "partseq.cli", "default", "sequences", str(kb)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(10) == b"sequence 1"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (0, b"")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_closed_pipe_keeps_the_exit_code(self, tmp_path, flags):
        names = [f"c{i}" for i in range(12)]
        rules = "".join(f"rule r{i}: true : M {c} / {c}\n" for i, c in enumerate(names[:3]))
        kb = tmp_path / "chain.dl"
        kb.write_text(f"vocab: {' '.join(names)}\n{rules}")
        env = dict(os.environ, PYTHONPATH=str(Path(partseq.__file__).parents[1]))
        argv = [sys.executable, "-m", "partseq.cli", *flags, "default", "sequences", str(kb)]
        code = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, timeout=60).returncode
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (code, b"")


class TestKindCheck:
    @pytest.mark.parametrize(
        "group, build, kb, kind, relabel",
        [
            ("default", "sequences", "rivals.dl", "default", "autoepistemic"),
            ("default", "sequences", "rivals.dl", "default", "possibility"),
            ("ael", "sequences", "introspective.ael", "autoepistemic", "default"),
            ("poss", "build", "nested.poss", "possibility", "conditional"),
        ],
        ids=[
            "default-as-autoepistemic",
            "default-as-possibility",
            "ael-as-default",
            "poss-as-conditional",
        ],
    )
    def test_relabelled_sequence_fails(
        self, kbdir, capsys, tmp_path, group, build, kb, kind, relabel
    ):
        _, out, _ = run(capsys, "--json", group, build, kbdir / kb)
        obj = json.loads(out, parse_float=Fraction)["sequences"][0]
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(obj))
        code, out, _ = run(capsys, group, "check", kbdir / kb, seq_file)
        assert (code, out) == (0, "ok\n")
        obj["kind"] = relabel
        seq_file.write_text(render_json(obj))
        code, out, _ = run(capsys, group, "check", kbdir / kb, seq_file)
        assert code == 1
        assert out == f"violation: kind: the sequence is {relabel}, expected {kind}\n"

    @pytest.mark.parametrize(
        "group, build, kb",
        [
            ("default", "sequences", "rivals.dl"),
            ("ael", "sequences", "introspective.ael"),
            ("poss", "build", "nested.poss"),
        ],
    )
    def test_sequence_over_another_vocabulary_fails_once(
        self, kbdir, capsys, tmp_path, group, build, kb
    ):
        # the same worlds over (q, p): one violation, not one per world
        _, out, _ = run(capsys, "--json", group, build, kbdir / kb)
        obj = json.loads(out, parse_float=Fraction)["sequences"][0]
        obj["vocab"] = ["q", "p"]
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(render_json(obj))
        code, out, _ = run(capsys, group, "check", kbdir / kb, seq_file)
        assert code == 1
        assert out == "violation: vocab: the sequence is over [q, p], expected [p, q]\n"


class TestDeepInput:
    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("facts.dl", "vocab: p\n" + "fact: p\n" * 1500, ["default", "extensions"]),
            ("premises.ael", "vocab: p\n" + "p\n" * 1500, ["ael", "expansions"]),
        ],
        ids=["facts", "premises"],
    )
    def test_long_fact_list(self, capsys, tmp_path, name, text, argv):
        kb = tmp_path / name
        kb.write_text(text)
        code, out, err = run(capsys, *argv, kb)
        assert code == 0 and out.endswith(" 1: {p}\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "formula, column",
        [
            # the connective or parenthesis that crosses the limit is cited
            (" & ".join(["p"] * 3000), 7 + 4 * MAX_FORMULA_DEPTH + 2),
            ("~" * 5000 + "p", 7 + 5000 - MAX_FORMULA_DEPTH - 1),
            ("(" * 3000 + "p" + ")" * 3000, 7 + MAX_FORMULA_DEPTH),
        ],
        ids=["conjunctions", "negations", "parentheses"],
    )
    def test_too_deep_formula_is_parse_error(self, capsys, tmp_path, formula, column):
        kb = tmp_path / "deep.dl"
        kb.write_text("fact: " + formula + "\n")
        code, _, err = run(capsys, "default", "extensions", kb)
        assert code == 2
        assert err == (
            f"parse error: line 1, column {column}: formula nested deeper than "
            f"{MAX_FORMULA_DEPTH} levels\n"
        )

    @pytest.mark.parametrize("symbol", ["&", "|", "<->"])
    def test_formula_at_the_depth_bound_is_read(self, capsys, tmp_path, symbol):
        # right-nested, each operand but the last parenthesised: the
        # formatted text of a formula exactly at the bound
        fact = "p"
        for _ in range(MAX_FORMULA_DEPTH):
            fact = f"p {symbol} ({fact})" if fact != "p" else f"p {symbol} p"
        kb = tmp_path / "deep.dl"
        kb.write_text("vocab: p\nfact: " + fact + "\n")
        code, out, err = run(capsys, "default", "extensions", kb)
        assert (code, err) == (0, "")
        kb.write_text("vocab: p\nfact: p & (" + fact + ")\n")
        code, _, err = run(capsys, "default", "extensions", kb)
        assert code == 2 and "nested deeper than" in err

    @pytest.mark.parametrize(
        "document",
        [
            "[" * 200000,
            '{"kind": "default", "vocab": ["p"], "classes": '
            + "[" * 3000
            + '[[{"assign": {"p": 0}}], [{"assign": {"p": 1}}]]'
            + "]" * 3000
            + "}",
        ],
        ids=["brackets", "wrapped-classes"],
    )
    @pytest.mark.parametrize("command", [["explain"], ["default", "check"]], ids=["explain", "check"])
    def test_too_deep_sequence_document_is_parse_error(self, capsys, tmp_path, document, command):
        (tmp_path / "one.dl").write_text("fact: p\n")
        (tmp_path / "deep.json").write_text(document)
        kb = [tmp_path / "one.dl"] if command[0] == "default" else []
        code, out, err = run(capsys, *command, *kb, tmp_path / "deep.json")
        assert (code, out) == (2, "")
        assert err == "parse error: line 1, column 1: bad sequence document: nested too deeply\n"


LONG = "x" * 5000
HALF_PROB = "vocab: p\nworld p : 1/2\nworld ~p : 1/2\n"


class TestExitCodes:
    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("id.dl", f"vocab: p\nrule {LONG}-: true : M p / p\n", ["default", "extensions"]),
            (
                "twice.dl",
                "vocab: p\n" + f"rule {LONG}: p : M p / p\n" * 2,
                ["default", "extensions"],
            ),
            ("colon.dl", f"vocab: p\nrule r {LONG}\n", ["default", "extensions"]),
            ("names.dl", f"vocab: {LONG} {LONG}\nfact: true\n", ["default", "extensions"]),
            ("name.dl", f"vocab: 1{LONG}\nfact: true\n", ["default", "extensions"]),
            ("unknown.dl", f"vocab: p\nfact: {LONG}\n", ["default", "extensions"]),
            ("found.dl", f"vocab: p\nfact: (p {LONG}\n", ["default", "extensions"]),
            ("after.ael", f"vocab: p\np {LONG}\n", ["ael", "expansions"]),
            ("literal.prob", f"vocab: p\nworld ~~{LONG} : 1\n", ["worlds"]),
            ("constant.prob", f"vocab: p\nworld {LONG} : 1\n", ["worlds"]),
            ("assigned.prob", f"vocab: {LONG}\nworld {LONG},~{LONG} : 1\n", ["worlds"]),
            ("half.prob", HALF_PROB, ["prob", "condition", "{kb}", "--on", LONG]),
            (
                "kind.json",
                json.dumps({"kind": "x" * 50000, "vocab": ["p"], "classes": [[], []]}),
                ["explain"],
            ),
            (
                "assign.json",
                json.dumps(
                    {"kind": "default", "vocab": [LONG], "classes": [[{"assign": {LONG: 2}}], []]}
                ),
                ["explain"],
            ),
        ],
        ids=[
            "rule id", "duplicate rule id", "expected", "duplicate constant name",
            "bad constant name", "unknown constant", "expected found", "unexpected after",
            "bad literal", "unknown literal", "assigned twice", "unknown --on constant",
            "sequence kind", "assignment",
        ],
    )
    def test_long_input_text_is_quoted_clipped(self, capsys, tmp_path, name, text, argv):
        kb = tmp_path / name
        kb.write_text(text)
        argv = [kb if a == "{kb}" else a for a in argv] if "{kb}" in argv else [*argv, kb]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200 and "Traceback" not in err
        assert "x" * 30 + "...'" in err

    def test_parse_error_is_two(self, kbdir, capsys, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("rule r1: true : M p")
        code, _, err = run(capsys, "default", "extensions", bad)
        assert code == 2
        assert "parse error" in err

    def test_bad_query_formula_is_two(self, kbdir, capsys):
        code, _, err = run(
            capsys,
            "prob", "query", kbdir / "weather.prob",
            "--on", "p &", "--query", "p",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "premise, column", [("L p ->", 7), ("L (L) -> p", 4), ("L p -> L", 8), ("~L p -> q & L", 13)]
    )
    def test_belief_premise_fault_located_on_its_line(self, capsys, tmp_path, premise, column):
        kb = tmp_path / "bad.ael"
        kb.write_text(f"p\nL q -> p\n{premise}\n")
        code, out, err = run(capsys, "ael", "expansions", kb)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: line 3, column {column}: ")

    def test_sample_space_weights_must_total_exactly_one(self, capsys, tmp_path):
        kb = tmp_path / "short.prob"
        kb.write_text("vocab: p\nworld p : 0.4999999999\nworld ~p : 0.5\n")
        code, out, err = run(capsys, "prob", "condition", kb, "--on", "p")
        assert code == 2 and out == ""
        assert "sample space weights total 9999999999/10000000000, not 1" in err

    def test_long_weight_total_is_one_short_line(self, capsys, tmp_path):
        # the total has 4001 digits, past the interpreter's limit on
        # int-to-str conversion: it is quoted clipped
        kb = tmp_path / "long.prob"
        kb.write_text("vocab: p\nworld p : 1e4000\nworld ~p : 0\n")
        code, out, err = run(capsys, "prob", "condition", kb, "--on", "p")
        assert code == 2 and out == "" and err.count("\n") == 1 and len(err) < 200
        assert f"sample space weights total 1{'0' * 39}..., not 1" in err

    @pytest.mark.parametrize("argv", [["explain"], ["default", "check", "rivals.dl"]])
    def test_truncated_sequence_document_is_two(self, kbdir, capsys, argv):
        seq = kbdir / "truncated.json"
        seq.write_text('{"kind":"default","vocab":["p"')
        argv = [kbdir / a if a.endswith(".dl") else a for a in argv]
        code, out, err = run(capsys, *argv, seq)
        assert (code, out) == (2, "")
        assert err == "parse error: line 1, column 31: Expecting ',' delimiter\n"

    def test_threshold_without_eps_is_three(self, kbdir, capsys):
        code, out, err = run(capsys, "prob", "threshold", kbdir / "weather.prob", "--on", "p")
        assert (code, out, err) == (3, "", "error: threshold needs --eps\n")

    def test_worlds_of_unknown_suffix_is_three(self, capsys, tmp_path):
        kb = tmp_path / "kb.txt"
        kb.write_text("vocab: p\n")
        code, out, err = run(capsys, "worlds", kb)
        assert (code, out) == (3, "")
        assert err == (
            f"error: cannot tell the KB kind from {str(kb)!r}; "
            "expected one of .dl, .ael, .prob, .poss\n"
        )

    def test_unknown_subcommand_is_three(self, capsys):
        code, _, err = run(capsys, "default", "bogus", "x.dl")
        assert code == 3

    def test_missing_kb_is_three(self, capsys, tmp_path):
        code, _, err = run(capsys, "default", "extensions", tmp_path / "absent.dl")
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_sequence_is_three(self, kbdir, capsys, tmp_path):
        code, _, err = run(
            capsys, "default", "check", kbdir / "rivals.dl", tmp_path / "absent.json"
        )
        assert code == 3
        assert err.startswith("error:") and "Traceback" not in err

    def test_resource_error_is_three(self, capsys, tmp_path):
        big = tmp_path / "big.dl"
        names = " ".join(f"x{i}" for i in range(25))
        big.write_text(f"vocab: {names}\nfact: x0\n")
        code, _, err = run(capsys, "default", "extensions", big)
        assert code == 3

    @pytest.mark.parametrize(
        "text",
        [
            "vocab: " + " ".join(f"c{i}" for i in range(21)) + "\nfact: c0\n",
            "vocab: p\n" + "".join(f"rule r{i}: true : M p / p\n" for i in range(17)),
        ],
        ids=["21 constants", "17 rules"],
    )
    def test_cap_is_one_error_line(self, capsys, tmp_path, text):
        big = tmp_path / "big.dl"
        big.write_text(text)
        code, out, err = run(capsys, "default", "extensions", big)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "capped at " in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("where", ["_read_kb", "render_json"])
    def test_out_of_memory_is_one_error_line(self, kbdir, capsys, monkeypatch, where):
        # the handler, then the writer, finds no memory left
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(f"partseq.cli.{where}", exhausted)
        code, out, err = run(capsys, "--json", "default", "sequences", kbdir / "rivals.dl")
        assert (code, out) == (3, "")
        assert err == "error: partseq default sequences ran out of memory\n"

    def test_out_of_memory_under_an_address_space_limit(self, tmp_path):
        # the JSON answer of the 16-constant, 3-rule chain needs about
        # 400 MB; the limit is set in the child alone
        names = [f"c{i}" for i in range(16)]
        rules = "".join(f"rule r{i}: true : M {c} / {c}\n" for i, c in enumerate(names[:3]))
        kb = tmp_path / "chain.dl"
        kb.write_text(f"vocab: {' '.join(names)}\n{rules}")
        env = dict(os.environ, PYTHONPATH=str(Path(partseq.__file__).parents[1]))
        limit = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "partseq.cli", "--json", "default", "sequences", str(kb)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err == "error: partseq default sequences ran out of memory\n"

    @pytest.mark.parametrize(
        "g, n, message",
        [(17, 20, "expansion search is capped at 16")],
        ids=["17 conditions"],
    )
    @pytest.mark.parametrize("action", ["expansions", "sequences"])
    def test_belief_cap_is_one_error_line(self, capsys, tmp_path, action, g, n, message):
        # ~L ~ci -> ci: one belief condition per premise
        big = tmp_path / "big.ael"
        big.write_text(
            "vocab: " + " ".join(f"c{i}" for i in range(n)) + "\n"
            + "".join(f"~L ~c{i} -> c{i}\n" for i in range(g))
        )
        code, out, err = run(capsys, "ael", action, big)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestNumberSizes:
    """Literals past the exponent bound are refused at once, and answers
    with numbers of any size are written and read back; each command runs
    in its own process, with no traceback on stderr, within 10 s."""

    BIG = 10**4000

    @staticmethod
    def cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(partseq.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "partseq.cli", *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize(
        "name, text, command, where",
        [
            ("big.poss", "vocab: p\nposs 1e-10000000 : p\n", ["poss", "build"], "line 2, column 6"),
            ("big.prob", "vocab: p\nworld p : 1e-10000000\nworld ~p : 1\n",
             ["prob", "condition"], "line 2, column 10"),
            ("big.json",
             '{"kind": "conditional", "vocab": ["p"], "provenance": [""],'
             ' "classes": [[{"assign": {"p": 1}, "weight": 1e-10000000}]]}',
             ["explain"], "line 1, column 1"),
        ],
        ids=["poss value", "prob weight", "sequence weight"],
    )
    def test_exponent_beyond_the_bound_is_a_parse_error(self, tmp_path, name, text, command, where):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = self.cli(*command, path, *(["--on", "p"] if name.endswith("prob") else []))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {where}: ")

    def test_long_integer_weight_is_read(self, tmp_path):
        # past the interpreter's 4300-digit limit on int(), within the literal bound
        big = "1" + "0" * 4999
        path = tmp_path / "big.json"
        path.write_text(
            '{"kind": "conditional", "vocab": ["p"], "provenance": ["", ""], "classes": '
            f'[[{{"assign": {{"p": 1}}, "weight": {big}}}], [{{"assign": {{"p": 0}}}}]]}}'
        )
        code, out, err = self.cli("explain", path)
        assert (code, err) == (0, "") and f"<{{p}}, {big}>" in out
        path.write_text(path.read_text().replace(big, "1" * 100001))
        code, out, err = self.cli("explain", path)
        assert (code, out) == (2, "")
        assert err == (
            "parse error: line 1, column 1: bad sequence document: "
            "literal longer than 100000 characters\n"
        )

    @pytest.mark.parametrize("kind", ["prob", "poss"])
    def test_literal_past_the_bound_is_named_in_one_short_line(self, tmp_path, kind):
        long = "0." + "1" * 100001
        path = tmp_path / f"long.{kind}"
        if kind == "prob":
            path.write_text(f"vocab: p\nworld p : {long}\nworld ~p : 1\n")
            code, out, err = self.cli("prob", "condition", path, "--on", "p")
            head = "parse error: line 2, column 10: bad weight"
        else:
            path.write_text(f"vocab: p\nposs {long} : p\n")
            code, out, err = self.cli("poss", "build", path)
            head = "parse error: line 2, column 6: bad possibility value"
        assert (code, out) == (2, "")
        assert err == f"{head} '{long[:40]}...': literal longer than 100000 characters\n"

    def test_eps_beyond_the_bound_is_a_usage_error(self, kbdir):
        code, out, err = self.cli("prob", "threshold", kbdir / "weather.prob", "--eps", "1e-10000000")
        assert (code, out) == (3, "")
        assert err == "error: not a rational literal: '1e-10000000'\n"

    def test_long_eps_is_named_in_one_short_line(self, kbdir):
        long = "0." + "1" * 100001
        code, out, err = self.cli("prob", "threshold", kbdir / "weather.prob", "--eps", long, "--on", "p")
        assert (code, out) == (3, "")
        assert err == (
            f"error: not a rational literal: '{long[:40]}...': literal longer than 100000 characters\n"
        )

    def test_long_integer_assignment_is_quoted_clipped(self, kbdir, tmp_path):
        # past the interpreter's 4300-digit limit on int-to-str conversion
        big = "1" + "0" * 4999
        path = tmp_path / "big.json"
        path.write_text('{"kind": "default", "vocab": ["p"], "classes": [[{"assign": {"p": %s}}]]}' % big)
        for command in (["explain"], ["default", "check", kbdir / "rivals.dl"]):
            code, out, err = self.cli(*command, path)
            assert (code, out) == (2, "")
            assert err == (
                "parse error: line 1, column 1: bad sequence document: "
                f"classes[0][0]: assignment of 'p' is {big[:40]}..., not 0 or 1\n"
            )

    @pytest.mark.parametrize(
        "levels",
        [[("1e-5000", "p")], [(f"1/{BIG + 3}", "p"), (f"1/{BIG + 1}", "q")]],
        ids=["decimal", "two long ratios"],
    )
    def test_long_numbers_are_written_and_read_back(self, tmp_path, levels):
        kb = tmp_path / "long.poss"
        kb.write_text("vocab: p q\n" + "".join(f"poss {v} : {phi}\n" for v, phi in levels))
        built = build_poss_sequence(parse_kb(kb.read_text(), "poss").body)
        code, out, _ = self.cli("poss", "build", kb)
        assert code == 0 and out == "".join(f"{line}\n" for line in sequence_lines(built))
        code, out, _ = self.cli("--json", "poss", "build", kb)
        assert code == 0
        seq = json.loads(out, parse_float=parse_fraction)["sequences"][0]
        back = sequence_from_obj(seq)
        assert back == built
        assert [w.weight for w in sorted(back.all_worlds, key=World.bits)] == [
            w.weight for w in sorted(built.all_worlds, key=World.bits)
        ]
        (tmp_path / "seq.json").write_text(render_json(seq))
        assert self.cli("poss", "check", kb, tmp_path / "seq.json")[:2] == (0, "ok\n")
        code, out, _ = self.cli("poss", "query", kb, "--query", "p")
        assert code == 0
        p = Const("p")
        assert out == (
            f"possibility: {format_fraction(possibility_of(built, p))}\n"
            f"necessity: {format_fraction(necessity(built, p))}\n"
        )


class TestSharedParser:
    """One parser serves every call of ``main`` in a process, so no call
    may leave anything behind for the next."""

    def test_same_answers_forwards_and_backwards(self, kbdir, capsys):
        rivals, weather = kbdir / "rivals.dl", kbdir / "weather.prob"
        seq_file = kbdir / "seq.json"
        _, out, _ = run(capsys, "--json", "default", "sequences", rivals)
        seq_file.write_text(render_json(json.loads(out, parse_float=Fraction)["sequences"][0]))
        argvs = [
            ["--json", "default", "sequences", rivals],
            ["default", "sequences", rivals, "--json"],
            ["default", "sequences", rivals],
            ["--strict", "default", "check", rivals, seq_file],
            ["default", "check", rivals, seq_file],
            ["default", "check", "--strict", rivals, seq_file, "--json"],
            ["prob", "query", weather, "--on", "p", "--on", "q", "--query", "q"],
            ["prob", "query", weather, "--on", "p", "--query", "~q", "--eps", "1/2"],
            ["prob", "threshold", "--strict", weather, "--eps", "1/2", "--on", "p"],
            ["prob", "threshold", weather, "--eps", "1/2", "--on", "p"],
            ["prob", "condition", weather],
            ["prob", "query", weather, "--on", "p &", "--query", "q"],
            ["default", "bogus", rivals],
            ["--json", "worlds", weather],
        ]
        forwards = [run(capsys, *argv) for argv in argvs]
        backwards = [run(capsys, *argv) for argv in reversed(argvs)]
        assert forwards == backwards[::-1]
        codes = [code for code, _, _ in forwards]
        assert codes == [0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 3, 2, 3, 0]
        assert _build_parser.cache_info().misses == 1


class TestSequenceDocument:
    """The sequence JSON reader refuses what it cannot read exactly."""

    def write(self, tmp_path, classes):
        path = tmp_path / "seq.json"
        doc = {"kind": "conditional", "vocab": ["p"], "classes": classes}
        path.write_text(json.dumps(doc))
        return path

    def test_world_listed_twice_in_a_class_is_two(self, capsys, tmp_path):
        twice = [{"assign": {"p": 0}, "weight": "1/2"}, {"assign": {"p": 0}, "weight": "1/4"}]
        rest = [{"assign": {"p": 1}, "weight": "1/4"}]
        code, out, err = run(capsys, "explain", self.write(tmp_path, [twice, rest]))
        assert (code, out) == (2, "")
        assert "bad sequence document: classes[0][1]: a world is listed twice" in err

    @pytest.mark.parametrize("value", [7, -1, True, False, "1", 1.0, None])
    def test_assignment_other_than_zero_or_one_is_two(self, capsys, tmp_path, value):
        classes = [[{"assign": {"p": value}}], [{"assign": {"p": 1}}]]
        code, out, err = run(capsys, "explain", self.write(tmp_path, classes))
        assert (code, out) == (2, "")
        assert "bad sequence document: classes[0][0]: assignment of 'p'" in err

    def test_zero_denominator_weight_is_two(self, capsys, tmp_path):
        classes = [[{"assign": {"p": 0}, "weight": "1/0"}], [{"assign": {"p": 1}}]]
        code, out, err = run(capsys, "explain", self.write(tmp_path, classes))
        assert (code, out) == (2, "")
        assert err.endswith("bad sequence document: classes[0][0]: bad weight value: '1/0'\n")
        assert err.startswith("parse error: line 1, column 1: ")

    def test_weight_that_is_no_rational_is_quoted_clipped(self, capsys, tmp_path):
        classes = [[{"assign": {"p": 0}, "weight": "x" * 200}], [{"assign": {"p": 1}}]]
        code, out, err = run(capsys, "explain", self.write(tmp_path, classes))
        assert (code, out) == (2, "")
        quoted = "'" + "x" * 40 + "...'"
        assert err == (
            "parse error: line 1, column 1: bad sequence document: "
            f"classes[0][0]: bad weight value: {quoted}\n"
        )

    @pytest.mark.parametrize("key", ["kind", "vocab", "classes", "assign"])
    def test_missing_key_is_named(self, capsys, tmp_path, key):
        path = self.write(tmp_path, [[{"assign": {"p": 0}}], [{"assign": {"p": 1}}]])
        doc = json.loads(path.read_text())
        del (doc["classes"][0][0] if key == "assign" else doc)[key]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "explain", path)
        assert (code, out) == (2, "")
        where = "classes[0][0]: " if key == "assign" else ""
        assert err == f"parse error: line 1, column 1: bad sequence document: {where}missing key '{key}'\n"

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_weight_is_two(self, capsys, tmp_path, value):
        classes = [[{"assign": {"p": 0}, "weight": value}], [{"assign": {"p": 1}, "weight": 1}]]
        code, out, err = run(capsys, "explain", self.write(tmp_path, classes))
        assert (code, out) == (2, "")
        assert f"bad sequence document: classes[0][0]: bad weight value: {value}" in err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_two(self, capsys, tmp_path, constant):
        path = self.write(tmp_path, [[{"assign": {"p": 0}}], [{"assign": {"p": 1}}]])
        path.write_text(path.read_text()[:-1] + f', "provenance": [{constant}, ""]}}')
        code, out, err = run(capsys, "--json", "explain", path)
        assert (code, out) == (2, "")
        assert err == f"parse error: line 1, column 1: bad sequence document: {constant} is not a number\n"


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("vocab", "pq", "vocab must be a list of strings"),
            ("vocab", {"p": 1}, "vocab must be a list of strings"),
            ("vocab", ["p", 1], "vocab must be a list of strings"),
            ("vocab", None, "vocab must be a list of strings"),
            ("classes", {}, "classes must be a list"),
            ("classes", None, "classes must be a list"),
            ("classes", [{}], "classes[0] must be a list"),
            ("classes", [[[]]], "classes[0][0] must be an object"),
        ],
    )
    @pytest.mark.parametrize("argv", [["explain"], ["default", "check", "rivals.dl"]])
    def test_part_of_the_wrong_type_is_two(self, kbdir, capsys, argv, field, value, message):
        path = self.write(kbdir, [[{"assign": {"p": 0}}], [{"assign": {"p": 1}}]])
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        argv = [kbdir / a if a.endswith(".dl") else a for a in argv]
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err == f"parse error: line 1, column 1: bad sequence document: {message}\n"

    def with_provenance(self, path, provenance):
        """``path`` holding a two-class default sequence over p and q
        whose provenance is ``provenance``, or has none if it is absent."""
        split = [[{"assign": {"p": p, "q": q}} for q in (0, 1)] for p in (0, 1)]
        doc = {"kind": "default", "vocab": ["p", "q"], "classes": split}
        if provenance != "absent":
            doc["provenance"] = provenance
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("provenance", ["ab", [{"a": 1}, [2]], "", 7, ["a", 1]])
    @pytest.mark.parametrize("argv", [["explain"], ["default", "check", "rivals.dl"]])
    def test_provenance_other_than_strings_is_two(self, kbdir, capsys, argv, provenance):
        seq = self.with_provenance(kbdir / "seq.json", provenance)
        argv = [kbdir / a if a.endswith(".dl") else a for a in argv]
        code, out, err = run(capsys, *argv, seq)
        assert (code, out) == (2, "")
        assert err == (
            "parse error: line 1, column 1: "
            "bad sequence document: provenance must be null or a list of strings\n"
        )

    @pytest.mark.parametrize("provenance", [None, [], ["", "r1"], "absent"])
    def test_provenance_null_absent_or_strings_is_read(self, capsys, tmp_path, provenance):
        seq = self.with_provenance(tmp_path / "seq.json", provenance)
        code, out, err = run(capsys, "explain", seq)
        assert (code, err) == (0, "")
        assert ("(from r1)" in out) == (provenance == ["", "r1"])


class TestJson:
    def test_envelope_shape(self, kbdir, capsys):
        code, out, _ = run(capsys, "--json", "default", "extensions", kbdir / "rivals.dl")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "default extensions"
        assert len(doc["result"]["extensions"]) == 2

    def test_bytes_deterministic(self, kbdir, capsys):
        _, first, _ = run(capsys, "--json", "default", "sequences", kbdir / "rivals.dl")
        _, second, _ = run(capsys, "--json", "default", "sequences", kbdir / "rivals.dl")
        assert first == second

    def test_flag_position_free(self, kbdir, capsys):
        _, first, _ = run(capsys, "--json", "poss", "build", kbdir / "nested.poss")
        _, second, _ = run(capsys, "poss", "build", kbdir / "nested.poss", "--json")
        assert first == second

    def test_sequences_parse_back(self, kbdir, capsys):
        _, out, _ = run(capsys, "--json", "ael", "sequences", kbdir / "introspective.ael")
        doc = json.loads(out, parse_float=Fraction)
        from partseq.sequences import render_json

        for obj in doc["sequences"]:
            seq = sequence_from_json(render_json(obj))
            assert seq.kind == "autoepistemic"


# each kind's commands; the KB path follows the first two words
FUZZ_COMMANDS = {
    "default": [["default", "extensions"], ["default", "sequences"], ["worlds"]],
    "ael": [["ael", "expansions"], ["ael", "sequences"], ["worlds"]],
    "prob": [
        ["prob", "condition", "--on", "p"],
        ["prob", "threshold", "--eps", "1/2", "--on", "p"],
        ["prob", "query", "--on", "p", "--query", "q"],
        ["worlds"],
    ],
    "poss": [["poss", "build"], ["poss", "query", "--query", "p"], ["worlds"]],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4) | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    """The path of every value inside a JSON value, itself included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*path, key))


class TestCliFuzz:
    """Every command answers any knowledge base and any sequence document
    with a documented exit code, and never with an exception."""

    @staticmethod
    def answer(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        return code, out

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(list(FUZZ_COMMANDS)).flatmap(
            lambda kind: st.tuples(
                st.just(kind),
                st.sampled_from(["", "vocab: p q\n", "vocab: p q r\n"]),
                # texts of accepted lines alone emit sequences more often
                st.lists(st.sampled_from(ACCEPTED_LINES[kind]), min_size=1, max_size=4, unique=True)
                | st.lists(
                    st.sampled_from(ACCEPTED_LINES[kind])
                    | st.lists(st.sampled_from(LINE_TOKENS[kind]), max_size=8).map(" ".join),
                    max_size=4,
                ),
            )
        ),
        st.sampled_from([[], ["--json"], ["--strict"]]),
        st.data(),
    )
    def test_every_answer_has_a_documented_exit_code(self, capsys, tmp_path, drawn, flags, data):
        kind, header, lines = drawn
        kb = tmp_path / f"kb{_FORMATS[kind].suffix}"
        kb.write_text(header + "\n".join(lines))
        emitted = []
        for words in FUZZ_COMMANDS[kind]:
            self.answer(capsys, *words[:2], kb, *words[2:], *flags)
            code, out = self.answer(capsys, "--json", *words[:2], kb, *words[2:])
            if code in (0, 1):
                emitted += json.loads(out)["sequences"]
        if not emitted:
            return

        doc = data.draw(st.sampled_from(emitted))
        mutation = data.draw(st.sampled_from(["drop", "replace", "wrap"]))
        if mutation == "wrap":
            # past the interpreter's recursion limit half the time
            depth = data.draw(st.integers(1, 3000) | st.just(3000))
            rest = json.dumps({k: v for k, v in doc.items() if k != "classes"})
            text = f'{rest[:-1]}, "classes": {"[" * depth}{json.dumps(doc["classes"])}{"]" * depth}}}'
        else:
            path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if mutation == "drop" and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
            text = json.dumps(doc)
        seq = tmp_path / "seq.json"
        seq.write_text(text)
        self.answer(capsys, "explain", seq, *flags)
        if kind != "prob":
            self.answer(capsys, kind, "check", kb, seq, *flags)


"""Command line behaviour: outputs, exit codes, JSON envelope."""

import json
from fractions import Fraction

import pytest

from partseq import lottery_space, sequence_from_json
from partseq.cli import main
from partseq.kbformats import KbDocument, serialize_kb

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


class TestAelCommands:
    def test_expansions_listed(self, kbdir, capsys):
        code, out, _ = run(capsys, "ael", "expansions", kbdir / "introspective.ael")
        assert code == 0
        assert "expansion kernel 1:" in out

    def test_no_expansion_exit_one(self, kbdir, capsys):
        code, out, _ = run(capsys, "ael", "expansions", kbdir / "thwarted.ael")
        assert code == 1
        assert "no stable expansion" in out

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


class TestExitCodes:
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

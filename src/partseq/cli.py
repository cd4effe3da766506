"""Command line front end.

One executable covers all four knowledge-base kinds::

    partseq default extensions|sequences|check ...
    partseq ael     expansions|sequences|check ...
    partseq prob    condition|threshold|query  ...
    partseq poss    build|query|check          ...
    partseq worlds  <kb-file>
    partseq explain <sequence.json>

Exit codes: 0 success, 1 semantic negative (no extension or expansion,
inconsistent base, below threshold, failed check), 2 parse error,
3 usage or resource error. ``--json`` switches to a machine-readable
envelope with deterministic bytes. ``--strict`` flips the comparison
variants: sequence checkers judge rule conditions inside each split-off
class rather than against the final one, and the threshold ratio divides
by the whole space's mass rather than the mass still in play.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import autoepistemic as ael
from . import defaults, probability
from .errors import (
    BelowThresholdError,
    ParseError,
    ResourceLimitError,
    SemanticError,
    UndefinedConditionalError,
)
from .kbformats import _FORMATS, KbDocument, parse_kb
from .logic import Formula, TruthTable, parse_formula
from .possibility import (
    InconsistencyReport,
    build_poss_sequence,
    check_poss_sequence,
    necessity,
    possibility as possibility_of,
)
from .rationals import as_fraction, format_fraction
from .sequences import (
    PartitionSequence,
    preference_view,
    render_json,
    sequence_from_json,
    table_rows,
    world_rows,
    world_texts,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; each command names its handler as
    ``run``."""
    parser = _Parser(prog="partseq", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="judge checker conditions per class and threshold ratios "
        "against the whole space (comparison variants)",
    )
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # subparser from clobbering a value the top level already set
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--strict", action="store_true", default=argparse.SUPPRESS)

    def command(sub, name, run, *positionals, **kwargs) -> _Parser:
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=run)
        for positional in positionals:
            p.add_argument(positional)
        return p

    sub = parser.add_subparsers(dest="group", required=True)
    for group, what, search, run in (
        ("default", "default-rule theories (.dl)", "extensions", _cmd_default_extensions),
        ("ael", "belief premises (.ael)", "expansions", _cmd_ael_expansions),
    ):
        g_sub = sub.add_parser(group, help=what).add_subparsers(dest="action", required=True)
        command(g_sub, search, run, "kb")
        command(g_sub, "sequences", _cmd_sequences, "kb")
        command(g_sub, "check", _cmd_check, "kb", "sequence")

    p_prob = sub.add_parser("prob", help="weighted sample spaces (.prob)")
    pr_sub = p_prob.add_subparsers(dest="action", required=True)
    for name, run in (
        ("condition", _cmd_prob_condition),
        ("threshold", _cmd_prob_threshold),
        ("query", _cmd_prob_query),
    ):
        p = command(pr_sub, name, run, "kb")
        p.add_argument(
            "--on",
            action="append",
            default=[],
            metavar="FORMULA",
            help="condition formula, in order (repeatable)",
        )
        if name != "condition":
            p.add_argument("--eps", metavar="RATIONAL", help="acceptance threshold")
        if name == "query":
            p.add_argument("--query", required=True, metavar="FORMULA")

    p_poss = sub.add_parser("poss", help="possibilistic bases (.poss)")
    po_sub = p_poss.add_subparsers(dest="action", required=True)
    command(po_sub, "build", _cmd_poss_build, "kb")
    p = command(po_sub, "query", _cmd_poss_query, "kb")
    p.add_argument("--query", required=True, metavar="FORMULA")
    command(po_sub, "check", _cmd_check, "kb", "sequence")

    command(sub, "worlds", _cmd_worlds, "kb", help="list a knowledge base's worlds")
    command(sub, "explain", _cmd_explain, "sequence", help="pretty-print a sequence JSON file")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = _Output(json_mode=args.json)
    try:
        code = args.run(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimitError, SemanticError, _UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out.flush()
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the interpreter's
        # own flush at exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


class _Output:
    """Collects either human lines or one JSON envelope."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode
        self.lines: list[str] = []
        self.envelope: dict = {}

    def say(self, *lines: str):
        self.say_all(lines)

    def say_all(self, lines: Iterable[str]):
        """Keeps ``lines`` in text mode; in JSON mode they are never read,
        so a generator of them formats nothing."""
        if not self.json_mode:
            self.lines.extend(lines)

    def record(self, command: str, inputs: dict, result: dict, sequences=()):
        """The JSON envelope; ``render_json`` writes the sequences and the
        world rows in ``result`` from their masks."""
        if self.json_mode:
            self.envelope = {
                "command": command,
                "inputs": inputs,
                "result": result,
                "sequences": list(sequences),
            }

    def flush(self):
        if self.json_mode:
            sys.stdout.write(render_json(self.envelope))
        else:
            for line in self.lines:
                print(line)


def _read_kb(path: str, kind: str) -> KbDocument:
    text = Path(path).read_text()
    return parse_kb(text, kind)


def _read_sequence(path: str) -> PartitionSequence:
    text = Path(path).read_text()
    try:
        return sequence_from_json(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except KeyError as exc:
        raise ParseError(f"bad sequence document: missing key {exc}", 1, 1) from None
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad sequence document: {exc}", 1, 1) from None
    except RecursionError:
        raise ParseError("bad sequence document: nested too deeply", 1, 1) from None


def _sequence_lines(seq: PartitionSequence, head="sequence:", weighed=False) -> Iterator[str]:
    """``head``, then a line per class; ``weighed`` adds each class's weight."""
    yield head
    for i, mask in enumerate(seq.masks):
        origin = f"   (from {seq.provenance[i]})" if seq.provenance[i] else ""
        mass = f"   weight {format_fraction(seq.table.mass(mask))}" if weighed else ""
        worlds = ", ".join(world_texts(world_rows(seq.table, mask)))
        yield f"  W{i} = {{{worlds}}}{mass}{origin}"


# -- default ----------------------------------------------------------------


def _cmd_default_extensions(args, out) -> int:
    doc = _read_kb(args.kb, "default")
    table, found = defaults._search(doc.body)
    kernels = [world_rows(table, mask) for mask in found]
    extensions = [{"inconsistent": not mask, "worlds": k} for mask, k in zip(found, kernels)]
    out.record("default extensions", {"kb": args.kb}, {"extensions": extensions})
    if not kernels:
        out.say("no extension")
        return EXIT_NEGATIVE
    out.say_all(
        f"extension {i}: {', '.join(world_texts(k)) or 'inconsistent (empty model set)'}"
        for i, k in enumerate(kernels, 1)
    )
    return EXIT_OK


# -- sequences and checks shared by several groups ----------------------------

_BUILDERS = {
    "default": (
        defaults.build_default_sequences,
        "no sequence: the theory has no consistent extension",
    ),
    "ael": (
        ael.build_ael_sequences,
        "no sequence: the premises have no consistent stable expansion",
    ),
}

_CHECKERS = {
    "default": defaults.check_default_sequence,
    "ael": ael.check_ael_sequence,
    # possibility classes are fixed by the levels; there is no strict variant
    "poss": lambda kb, seq, strict: check_poss_sequence(kb, seq),
}


def _cmd_sequences(args, out) -> int:
    build, missing = _BUILDERS[args.group]
    seqs = build(_read_kb(args.kb, args.group).body)
    out.record(f"{args.group} sequences", {"kb": args.kb}, {"count": len(seqs)}, seqs)
    if not seqs:
        out.say(missing)
        return EXIT_NEGATIVE
    out.say_all(
        line for i, seq in enumerate(seqs, 1) for line in _sequence_lines(seq, f"sequence {i}:")
    )
    return EXIT_OK


def _cmd_check(args, out) -> int:
    doc = _read_kb(args.kb, args.group)
    seq = _read_sequence(args.sequence)
    problems = _CHECKERS[args.group](doc.body, seq, strict=args.strict)
    result = {"ok": not problems, "violations": [str(p) for p in problems]}
    out.record(f"{args.group} check", {"kb": args.kb, "sequence": args.sequence}, result)
    if problems:
        out.say_all(f"violation: {p}" for p in problems)
        return EXIT_NEGATIVE
    out.say("ok")
    return EXIT_OK


# -- ael ---------------------------------------------------------------------


def _cmd_ael_expansions(args, out) -> int:
    doc = _read_kb(args.kb, "ael")
    table, found = ael._search(doc.body)
    kernels = [world_rows(table, mask) for mask in found]
    forced = ael.forced_inconsistency(doc.body)
    result = {"kernels": kernels, "premises_inconsistent": forced}
    out.record("ael expansions", {"kb": args.kb}, result)
    if not kernels:
        out.say("no stable expansion")
        if forced:
            out.say("note: the premises are contradictory under any beliefs")
        return EXIT_NEGATIVE
    out.say_all(
        f"expansion kernel {i}: {', '.join(world_texts(k))}" for i, k in enumerate(kernels, 1)
    )
    return EXIT_OK


# -- prob ---------------------------------------------------------------------


def _conditions(args, doc) -> list[Formula]:
    if not args.on:
        raise _UsageError("at least one --on formula is required")
    return [parse_formula(text, doc.vocab) for text in args.on]


def _cmd_prob_condition(args, out) -> int:
    doc = _read_kb(args.kb, "prob")
    seq = probability.condition(doc.body, _conditions(args, doc))
    out.record(
        "prob condition", {"kb": args.kb, "on": list(args.on)}, {"classes": len(seq.masks)}, [seq]
    )
    out.say_all(_sequence_lines(seq))
    return EXIT_OK


def _cmd_prob_threshold(args, out) -> int:
    doc = _read_kb(args.kb, "prob")
    if args.eps is None:
        raise _UsageError("threshold needs --eps")
    eps = as_fraction(args.eps)
    try:
        seq = probability.threshold(doc.body, eps, _conditions(args, doc), strict=args.strict)
    except BelowThresholdError as exc:
        out.record(
            "prob threshold",
            {"kb": args.kb, "on": list(args.on), "eps": eps},
            {
                "accepted": False,
                "step": exc.step,
                "formula": exc.formula,
                "ratio": exc.ratio,
            },
        )
        out.say(str(exc))
        return EXIT_NEGATIVE
    out.record(
        "prob threshold",
        {"kb": args.kb, "on": list(args.on), "eps": eps},
        {"accepted": True},
        [seq],
    )
    out.say_all(_sequence_lines(seq))
    return EXIT_OK


def _cmd_prob_query(args, out) -> int:
    doc = _read_kb(args.kb, "prob")
    conds = _conditions(args, doc)
    psi = parse_formula(args.query, doc.vocab)
    inputs = {"kb": args.kb, "on": list(args.on), "query": args.query}
    try:
        if args.eps is None:
            seq = probability.condition(doc.body, conds)
        else:
            inputs["eps"] = eps = as_fraction(args.eps)
            seq = probability.threshold(doc.body, eps, conds, strict=args.strict)
        value = probability.cond_prob(seq, psi)
    except (BelowThresholdError, UndefinedConditionalError) as exc:
        out.record("prob query", inputs, {"defined": False, "reason": str(exc)})
        out.say(str(exc))
        return EXIT_NEGATIVE
    out.record("prob query", inputs, {"defined": True, "value": value}, [seq])
    out.say_all(map(format_fraction, [value]))
    return EXIT_OK


# -- poss ---------------------------------------------------------------------


def _cmd_poss_build(args, out) -> int:
    doc = _read_kb(args.kb, "poss")
    built = build_poss_sequence(doc.body)
    if isinstance(built, InconsistencyReport):
        out.record(
            "poss build",
            {"kb": args.kb},
            {"consistent": False, "violations": [str(v) for v in built.violations]},
        )
        out.say("inconsistent possibilistic base:")
        out.say_all(f"  {v}" for v in built.violations)
        return EXIT_NEGATIVE
    out.record("poss build", {"kb": args.kb}, {"consistent": True}, [built])
    out.say_all(_sequence_lines(built))
    return EXIT_OK


def _cmd_poss_query(args, out) -> int:
    doc = _read_kb(args.kb, "poss")
    phi = parse_formula(args.query, doc.vocab)
    built = build_poss_sequence(doc.body)
    if isinstance(built, InconsistencyReport):
        out.record(
            "poss query",
            {"kb": args.kb, "query": args.query},
            {"consistent": False, "violations": [str(v) for v in built.violations]},
        )
        out.say_all(map("inconsistent possibilistic base: {}".format, [built]))
        return EXIT_NEGATIVE
    pi = possibility_of(built, phi)
    nec = necessity(built, phi)
    out.record(
        "poss query",
        {"kb": args.kb, "query": args.query},
        {"consistent": True, "possibility": pi, "necessity": nec},
        [built],
    )
    out.say_all(
        f"{name}: {format_fraction(value)}"
        for name, value in (("possibility", pi), ("necessity", nec))
    )
    return EXIT_OK


# -- worlds / explain ----------------------------------------------------------


def _kind_of(path: str) -> str:
    suffix = Path(path).suffix
    for kind, (ext, *_) in _FORMATS.items():
        if suffix == ext:
            return kind
    raise _UsageError(
        f"cannot tell the KB kind from {path!r}; expected one of "
        + ", ".join(ext for ext, *_ in _FORMATS.values())
    )


def _cmd_worlds(args, out) -> int:
    kind = _kind_of(args.kb)
    doc = _read_kb(args.kb, kind)
    # a sample space's worlds are listed in the file's order
    table = doc.body.table if kind == "prob" else TruthTable(doc.vocab)
    rows = table_rows(table, table.full)
    out.record("worlds", {"kb": args.kb}, {"vocab": list(doc.vocab.names), "worlds": rows})
    out.say_all(world_texts(rows))
    return EXIT_OK


def _cmd_explain(args, out) -> int:
    seq = _read_sequence(args.sequence)
    chain = [world_rows(seq.table, mask) for mask in preference_view(seq).masks]
    result = {"kind": seq.kind, "preference_chain": chain}
    out.record("explain", {"sequence": args.sequence}, result, [seq])
    out.say_all(_explain_lines(seq, chain))
    return EXIT_OK


def _explain_lines(seq: PartitionSequence, chain) -> Iterator[str]:
    # the first model set holds every world, each as first listed
    weighed = any(weight != 1 for weight in chain[0].weights or ())
    head = f"{seq.kind} sequence over {{{', '.join(seq.vocab.names)}}}"
    yield from _sequence_lines(seq, head, weighed)
    yield "preference chain (most preferred last):"
    for i, rows in enumerate(chain):
        yield f"  M{i} = {{{', '.join(world_texts(rows))}}}"


if __name__ == "__main__":
    sys.exit(main())

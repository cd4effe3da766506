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
from typing import Iterator

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
    """Entry point; returns the exit code instead of raising SystemExit.

    A handler returns its exit code, the inputs and result of the JSON
    envelope, its text lines and its sequences. ``main`` writes the one
    envelope, named by the subcommand as typed, or else the lines; long
    answers give them as generators, so JSON mode formats none of them.
    Running out of memory, in the handler or in the writing, is a
    resource error."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    command = " ".join(filter(None, (args.group, vars(args).get("action"))))
    try:
        code, inputs, result, lines, seqs = args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimitError, SemanticError, _UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        return _out_of_memory(command)
    try:
        if args.json:
            envelope = {"command": command, "inputs": inputs, "result": result, "sequences": seqs}
            sys.stdout.write(render_json(envelope))
        else:
            for line in lines:
                print(line)
    except BrokenPipeError:
        # the reader has gone; with stdout on devnull the interpreter's
        # own flush at exit stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except MemoryError:
        return _out_of_memory(command)
    return code


def _out_of_memory(command: str) -> int:
    print(f"error: partseq {command} ran out of memory", file=sys.stderr)
    return EXIT_USAGE


def _read_kb(path: str, kind: str) -> KbDocument:
    return parse_kb(Path(path).read_text(), kind)


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


def _sequence_lines(seq: PartitionSequence, head="sequence:", weighed=False) -> Iterator[str]:
    """``head``, then a line per class; ``weighed`` adds each class's weight."""
    yield head
    for i, mask in enumerate(seq.masks):
        origin = f"   (from {seq.provenance[i]})" if seq.provenance[i] else ""
        mass = f"   weight {format_fraction(seq.table.mass(mask))}" if weighed else ""
        worlds = ", ".join(world_texts(world_rows(seq.table, mask)))
        yield f"  W{i} = {{{worlds}}}{mass}{origin}"


# -- searches, sequences and checks of default theories and belief premises --


def _cmd_default_extensions(args):
    table, found = defaults._search(_read_kb(args.kb, "default").body)
    kernels = [world_rows(table, mask) for mask in found]
    result = {"extensions": [{"inconsistent": not m, "worlds": k} for m, k in zip(found, kernels)]}
    if not kernels:
        return EXIT_NEGATIVE, {"kb": args.kb}, result, ["no extension"], []
    lines = (
        f"extension {i}: {', '.join(world_texts(k)) or 'inconsistent (empty model set)'}"
        for i, k in enumerate(kernels, 1)
    )
    return EXIT_OK, {"kb": args.kb}, result, lines, []


def _cmd_ael_expansions(args):
    premises = _read_kb(args.kb, "ael").body
    table, found = ael._search(premises)
    kernels = [world_rows(table, mask) for mask in found]
    forced = ael.forced_inconsistency(premises)
    result = {"kernels": kernels, "premises_inconsistent": forced}
    if not kernels:
        note = ["note: the premises are contradictory under any beliefs"] if forced else []
        return EXIT_NEGATIVE, {"kb": args.kb}, result, ["no stable expansion", *note], []
    lines = (f"expansion kernel {i}: {', '.join(world_texts(k))}" for i, k in enumerate(kernels, 1))
    return EXIT_OK, {"kb": args.kb}, result, lines, []


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


def _cmd_sequences(args):
    build, missing = _BUILDERS[args.group]
    seqs = build(_read_kb(args.kb, args.group).body)
    if not seqs:
        return EXIT_NEGATIVE, {"kb": args.kb}, {"count": 0}, [missing], []
    lines = (line for i, s in enumerate(seqs, 1) for line in _sequence_lines(s, f"sequence {i}:"))
    return EXIT_OK, {"kb": args.kb}, {"count": len(seqs)}, lines, seqs


def _cmd_check(args):
    doc = _read_kb(args.kb, args.group)
    seq = _read_sequence(args.sequence)
    problems = _CHECKERS[args.group](doc.body, seq, strict=args.strict)
    inputs = {"kb": args.kb, "sequence": args.sequence}
    result = {"ok": not problems, "violations": [str(p) for p in problems]}
    if problems:
        return EXIT_NEGATIVE, inputs, result, (f"violation: {p}" for p in problems), []
    return EXIT_OK, inputs, result, ["ok"], []


# -- prob ---------------------------------------------------------------------


def _conditions(args, doc) -> list[Formula]:
    if not args.on:
        raise _UsageError("at least one --on formula is required")
    return [parse_formula(text, doc.vocab) for text in args.on]


def _cmd_prob_condition(args):
    doc = _read_kb(args.kb, "prob")
    seq = probability.condition(doc.body, _conditions(args, doc))
    inputs = {"kb": args.kb, "on": list(args.on)}
    return EXIT_OK, inputs, {"classes": len(seq.masks)}, _sequence_lines(seq), [seq]


def _cmd_prob_threshold(args):
    doc = _read_kb(args.kb, "prob")
    if args.eps is None:
        raise _UsageError("threshold needs --eps")
    inputs = {"kb": args.kb, "on": list(args.on), "eps": as_fraction(args.eps)}
    try:
        conds = _conditions(args, doc)
        seq = probability.threshold(doc.body, inputs["eps"], conds, strict=args.strict)
    except BelowThresholdError as exc:
        result = {"accepted": False, "step": exc.step, "formula": exc.formula, "ratio": exc.ratio}
        return EXIT_NEGATIVE, inputs, result, [str(exc)], []
    return EXIT_OK, inputs, {"accepted": True}, _sequence_lines(seq), [seq]


def _cmd_prob_query(args):
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
        return EXIT_NEGATIVE, inputs, {"defined": False, "reason": str(exc)}, [str(exc)], []
    return EXIT_OK, inputs, {"defined": True, "value": value}, [format_fraction(value)], [seq]


# -- poss ---------------------------------------------------------------------


def _inconsistent(report: InconsistencyReport) -> dict:
    return {"consistent": False, "violations": [str(v) for v in report.violations]}


def _cmd_poss_build(args):
    built = build_poss_sequence(_read_kb(args.kb, "poss").body)
    if isinstance(built, InconsistencyReport):
        lines = ["inconsistent possibilistic base:", *(f"  {v}" for v in built.violations)]
        return EXIT_NEGATIVE, {"kb": args.kb}, _inconsistent(built), lines, []
    return EXIT_OK, {"kb": args.kb}, {"consistent": True}, _sequence_lines(built), [built]


def _cmd_poss_query(args):
    doc = _read_kb(args.kb, "poss")
    phi = parse_formula(args.query, doc.vocab)
    built = build_poss_sequence(doc.body)
    inputs = {"kb": args.kb, "query": args.query}
    if isinstance(built, InconsistencyReport):
        lines = [f"inconsistent possibilistic base: {built}"]
        return EXIT_NEGATIVE, inputs, _inconsistent(built), lines, []
    pi, nec = possibility_of(built, phi), necessity(built, phi)
    result = {"consistent": True, "possibility": pi, "necessity": nec}
    lines = (f"{name}: {format_fraction(result[name])}" for name in ("possibility", "necessity"))
    return EXIT_OK, inputs, result, lines, [built]


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


def _cmd_worlds(args):
    kind = _kind_of(args.kb)
    doc = _read_kb(args.kb, kind)
    # a sample space's worlds are listed in the file's order
    table = doc.body.table if kind == "prob" else TruthTable(doc.vocab)
    rows = table_rows(table, table.full)
    result = {"vocab": list(doc.vocab.names), "worlds": rows}
    return EXIT_OK, {"kb": args.kb}, result, world_texts(rows), []


def _cmd_explain(args):
    seq = _read_sequence(args.sequence)
    chain = [world_rows(seq.table, mask) for mask in preference_view(seq).masks]
    result = {"kind": seq.kind, "preference_chain": chain}
    return EXIT_OK, {"sequence": args.sequence}, result, _explain_lines(seq, chain), [seq]


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

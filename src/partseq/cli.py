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
import json
import sys
from pathlib import Path

from . import autoepistemic as ael
from . import defaults, probability
from .probability import ConditioningQuery
from .errors import (
    BelowThresholdError,
    ParseError,
    ResourceLimitError,
    SemanticError,
    UndefinedConditionalError,
)
from .kbformats import KbDocument, parse_kb
from .logic import Formula, Kernel, World, enumerate_worlds, parse_formula
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
    sequence_to_obj,
    world_to_obj,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_USAGE = 3

_EXTENSIONS = {"default": ".dl", "ael": ".ael", "prob": ".prob", "poss": ".poss"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
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
    sub = parser.add_subparsers(dest="group", required=True)

    for group, what, search in (
        ("default", "default-rule theories (.dl)", "extensions"),
        ("ael", "belief premises (.ael)", "expansions"),
    ):
        g_sub = sub.add_parser(group, help=what).add_subparsers(dest="action", required=True)
        g_sub.add_parser(search, parents=[common]).add_argument("kb")
        g_sub.add_parser("sequences", parents=[common]).add_argument("kb")
        _add_check(g_sub, common)

    p_prob = sub.add_parser("prob", help="weighted sample spaces (.prob)")
    pr_sub = p_prob.add_subparsers(dest="action", required=True)
    for name in ("condition", "threshold", "query"):
        p = pr_sub.add_parser(name, parents=[common])
        p.add_argument("kb")
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
    po_sub.add_parser("build", parents=[common]).add_argument("kb")
    p = po_sub.add_parser("query", parents=[common])
    p.add_argument("kb")
    p.add_argument("--query", required=True, metavar="FORMULA")
    _add_check(po_sub, common)

    p = sub.add_parser("worlds", parents=[common], help="list a knowledge base's worlds")
    p.add_argument("kb")
    p = sub.add_parser("explain", parents=[common], help="pretty-print a sequence JSON file")
    p.add_argument("sequence")
    return parser


def _add_check(group_sub, common):
    p = group_sub.add_parser("check", parents=[common])
    p.add_argument("kb")
    p.add_argument("sequence")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out = _Output(json_mode=args.json)
    try:
        code = _dispatch(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ResourceLimitError, SemanticError, _UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out.flush()
    return code


class _Output:
    """Collects either human lines or one JSON envelope."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode
        self.lines: list[str] = []
        self.envelope: dict = {}

    def say(self, text: str):
        if not self.json_mode:
            self.lines.append(text)

    def record(self, command: str, inputs: dict, result: dict, sequences=None):
        if self.json_mode:
            self.envelope = {
                "command": command,
                "inputs": inputs,
                "result": result,
                "sequences": [sequence_to_obj(s) for s in (sequences or [])],
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
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad sequence document: {exc}", 1, 1) from None


def _world_text(w: World) -> str:
    lits = ", ".join(n if n in w.true_names else "~" + n for n in w.vocab.names)
    if w.weight != 1:
        return f"<{{{lits}}}, {format_fraction(w.weight)}>"
    return "{" + lits + "}"


def _class_text(cls) -> str:
    if not cls:
        return "{}"
    return "{" + ", ".join(_world_text(w) for w in sorted(cls, key=World.bits)) + "}"


def _kernel_text(kernel: Kernel) -> str:
    if not kernel.worlds:
        return "inconsistent (empty model set)"
    return ", ".join(_world_text(w) for w in sorted(kernel.worlds, key=World.bits))


def _say_sequence(out: _Output, seq: PartitionSequence, head="sequence:", weighed=False):
    """``head``, then a line per class; ``weighed`` adds each class's weight."""
    out.say(head)
    for i, cls in enumerate(seq.classes):
        origin = f"   (from {seq.provenance[i]})" if seq.provenance[i] else ""
        mass = f"   weight {format_fraction(seq.table.mass(seq.masks[i]))}" if weighed else ""
        out.say(f"  W{i} = {_class_text(cls)}{mass}{origin}")


def _parse_cli_formula(text: str, doc: KbDocument) -> Formula:
    return parse_formula(text, doc.vocab)


def _dispatch(args, out: _Output) -> int:
    group = args.group
    if group == "worlds":
        return _cmd_worlds(args, out)
    if group == "explain":
        return _cmd_explain(args, out)
    action = args.action
    handler = {
        ("default", "extensions"): _cmd_default_extensions,
        ("default", "sequences"): _cmd_sequences,
        ("default", "check"): _cmd_check,
        ("ael", "expansions"): _cmd_ael_expansions,
        ("ael", "sequences"): _cmd_sequences,
        ("ael", "check"): _cmd_check,
        ("prob", "condition"): _cmd_prob_condition,
        ("prob", "threshold"): _cmd_prob_threshold,
        ("prob", "query"): _cmd_prob_query,
        ("poss", "build"): _cmd_poss_build,
        ("poss", "query"): _cmd_poss_query,
        ("poss", "check"): _cmd_check,
    }[(group, action)]
    return handler(args, out)


# -- default ----------------------------------------------------------------


def _cmd_default_extensions(args, out) -> int:
    doc = _read_kb(args.kb, "default")
    kernels = defaults.extensions(doc.body)
    result = {
        "extensions": [
            {
                "inconsistent": not k.is_consistent,
                "worlds": [world_to_obj(w) for w in sorted(k.worlds, key=World.bits)],
            }
            for k in kernels
        ]
    }
    out.record("default extensions", {"kb": args.kb}, result)
    if not kernels:
        out.say("no extension")
        return EXIT_NEGATIVE
    for i, k in enumerate(kernels, 1):
        out.say(f"extension {i}: {_kernel_text(k)}")
    return EXIT_OK


# -- sequences and checks shared by several groups ----------------------------

_BUILDERS = {
    "default": (defaults.build_default_sequences, "the theory has no consistent extension"),
    "ael": (ael.build_ael_sequences, "the premises have no consistent stable expansion"),
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
        out.say(f"no sequence: {missing}")
        return EXIT_NEGATIVE
    for i, seq in enumerate(seqs, 1):
        _say_sequence(out, seq, f"sequence {i}:")
    return EXIT_OK


def _cmd_check(args, out) -> int:
    doc = _read_kb(args.kb, args.group)
    seq = _read_sequence(args.sequence)
    problems = _CHECKERS[args.group](doc.body, seq, strict=args.strict)
    result = {"ok": not problems, "violations": [str(p) for p in problems]}
    out.record(f"{args.group} check", {"kb": args.kb, "sequence": args.sequence}, result)
    if problems:
        for p in problems:
            out.say(f"violation: {p}")
        return EXIT_NEGATIVE
    out.say("ok")
    return EXIT_OK


# -- ael ---------------------------------------------------------------------


def _cmd_ael_expansions(args, out) -> int:
    doc = _read_kb(args.kb, "ael")
    kernels = ael.stable_expansions(doc.body)
    forced = ael.forced_inconsistency(doc.body)
    result = {
        "kernels": [
            [world_to_obj(w) for w in sorted(k.worlds, key=World.bits)]
            for k in kernels
        ],
        "premises_inconsistent": forced,
    }
    out.record("ael expansions", {"kb": args.kb}, result)
    if not kernels:
        out.say("no stable expansion")
        if forced:
            out.say("note: the premises are contradictory under any beliefs")
        return EXIT_NEGATIVE
    for i, k in enumerate(kernels, 1):
        out.say(f"expansion kernel {i}: {_kernel_text(k)}")
    return EXIT_OK


# -- prob ---------------------------------------------------------------------


def _conditions(args, doc) -> list[Formula]:
    if not args.on:
        raise _UsageError("at least one --on formula is required")
    return [_parse_cli_formula(text, doc) for text in args.on]


def _cmd_prob_condition(args, out) -> int:
    doc = _read_kb(args.kb, "prob")
    seq = probability.condition(doc.body, _conditions(args, doc))
    out.record(
        "prob condition", {"kb": args.kb, "on": list(args.on)}, {"classes": len(seq.masks)}, [seq]
    )
    _say_sequence(out, seq)
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
    _say_sequence(out, seq)
    return EXIT_OK


def _cmd_prob_query(args, out) -> int:
    doc = _read_kb(args.kb, "prob")
    conds = _conditions(args, doc)
    psi = _parse_cli_formula(args.query, doc)
    inputs = {"kb": args.kb, "on": list(args.on), "query": args.query}
    eps = None
    if args.eps is not None:
        eps = as_fraction(args.eps)
        inputs["eps"] = eps
    query = ConditioningQuery(conditions=tuple(conds), query=psi, epsilon=eps)
    try:
        found = probability.answer(doc.body, query, strict=args.strict)
    except (BelowThresholdError, UndefinedConditionalError) as exc:
        out.record("prob query", inputs, {"defined": False, "reason": str(exc)})
        out.say(str(exc))
        return EXIT_NEGATIVE
    out.record(
        "prob query", inputs, {"defined": True, "value": found.value}, [found.sequence]
    )
    out.say(format_fraction(found.value))
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
        for v in built.violations:
            out.say(f"  {v}")
        return EXIT_NEGATIVE
    out.record("poss build", {"kb": args.kb}, {"consistent": True}, [built])
    _say_sequence(out, built)
    return EXIT_OK


def _cmd_poss_query(args, out) -> int:
    doc = _read_kb(args.kb, "poss")
    phi = _parse_cli_formula(args.query, doc)
    built = build_poss_sequence(doc.body)
    if isinstance(built, InconsistencyReport):
        out.record(
            "poss query",
            {"kb": args.kb, "query": args.query},
            {"consistent": False, "violations": [str(v) for v in built.violations]},
        )
        out.say(f"inconsistent possibilistic base: {built}")
        return EXIT_NEGATIVE
    pi = possibility_of(built, phi)
    nec = necessity(built, phi)
    out.record(
        "poss query",
        {"kb": args.kb, "query": args.query},
        {"consistent": True, "possibility": pi, "necessity": nec},
        [built],
    )
    out.say(f"possibility: {format_fraction(pi)}")
    out.say(f"necessity: {format_fraction(nec)}")
    return EXIT_OK


# -- worlds / explain ----------------------------------------------------------


def _kind_of(path: str) -> str:
    suffix = Path(path).suffix
    for kind, ext in _EXTENSIONS.items():
        if suffix == ext:
            return kind
    raise _UsageError(
        f"cannot tell the KB kind from {path!r}; expected one of "
        + ", ".join(_EXTENSIONS.values())
    )


def _cmd_worlds(args, out) -> int:
    kind = _kind_of(args.kb)
    doc = _read_kb(args.kb, kind)
    if kind == "prob":
        worlds = list(doc.body.worlds)
    else:
        worlds = enumerate_worlds(doc.vocab)
    out.record(
        "worlds",
        {"kb": args.kb},
        {"vocab": list(doc.vocab.names), "worlds": [world_to_obj(w) for w in worlds]},
    )
    for w in worlds:
        out.say(_world_text(w))
    return EXIT_OK


def _cmd_explain(args, out) -> int:
    seq = _read_sequence(args.sequence)
    chain = preference_view(seq)
    out.record(
        "explain",
        {"sequence": args.sequence},
        {
            "kind": seq.kind,
            "preference_chain": [
                [world_to_obj(w) for w in sorted(m, key=World.bits)]
                for m in chain.models
            ],
        },
        [seq],
    )
    head = f"{seq.kind} sequence over {{{', '.join(seq.vocab.names)}}}"
    _say_sequence(out, seq, head, any(w.weight != 1 for w in seq.all_worlds))
    out.say("preference chain (most preferred last):")
    for i, m in enumerate(chain.models):
        out.say(f"  M{i} = {_class_text(m)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

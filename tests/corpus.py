"""The differential corpus of the command line.

From fixed seeds it writes knowledge bases to a temporary directory: the
demo bases, ``genkit`` bases of each kind, a lottery over 25 constants
and a chain theory. It runs every command on each of them in-process
through ``cli.main``, in text, ``--json`` and ``--strict`` mode. Then it
runs ``check`` and ``explain`` on every sequence the commands emitted,
and on corrupted copies of each: weights written as "1" or left out,
classes swapped or merged, a world moved, duplicated (with its weight or
another) or dropped, a wrong kind, bad weights and bad assignments. A call's argv, exit code, stdout
and stderr, with the directory written as ``$DIR``, make one record; the
records of each command family are hashed in order, one sha256 a family.
Last, the ``demos`` family runs each ``demos/*_demo.py`` in process and
records its path, its stdout and its stderr the same way.

    PYTHONPATH=src python tests/corpus.py                  # print the digests
    PYTHONPATH=src python tests/corpus.py --check tests/corpus.sha256
    PYTHONPATH=src python tests/corpus.py --records FILE   # every record, to diff two trees

``--slice`` runs the small corpus that ``test_corpus.py`` runs, with 3
generated bases of each kind instead of 160. pytest does not collect
this file. A change that alters output on purpose writes the digests of
both sizes again with ``--write tests/corpus.sha256`` and names the
families that changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import genkit  # noqa: E402
from partseq import cli, lottery_space  # noqa: E402
from partseq.kbformats import KbDocument, parse_kb, serialize_kb  # noqa: E402
from partseq.logic import format_formula  # noqa: E402

DEMOS = HERE.parent / "demos" / "kb"
DEMO_SCRIPTS = sorted((HERE.parent / "demos").glob("*_demo.py"))
SIZES = {"full": 160, "slice": 3}  # genkit bases of each kind
SEED = 20131
FLAGS = ([], ["--json"], ["--strict"])
SEARCH = {"default": "extensions", "ael": "expansions"}
KINDS = ("default", "autoepistemic", "conditional", "threshold", "possibility")
BAD_WEIGHTS = ("1/0", True, -1, "x", None, "1/2", 0, 2, "1", 1)
BAD_VALUES = (2, -1, True, "1", None)


class _Num(str):
    """A JSON number kept as the text it was written as."""


def _dump(value) -> str:
    """JSON text of a document read with ``_Num`` numbers, which are
    written back as they were read."""
    if isinstance(value, _Num):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _load(text: str):
    return json.loads(text, parse_float=_Num, parse_int=_Num)


class Corpus:
    def __init__(self, root: Path, records=None):
        self.root = root
        self.digests: dict = {}
        self.records = records
        self.index = self.files = 0

    def call(self, family: str, argv: list[str], run=cli.main) -> tuple[int, str]:
        """``run(argv)`` with stdout and stderr captured, as one record."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(argv)
            except Exception as exc:  # a traceback would reach the user
                code = f"raised {type(exc).__name__}: {exc}"
        text = out.getvalue()
        record = json.dumps([argv, code, text, err.getvalue()])
        record = record.replace(str(self.root), "$DIR") + "\n"
        self.digests.setdefault(family, hashlib.sha256()).update(record.encode())
        if self.records is not None:
            self.records.write(f"{family}\t{record}")
        return code, text

    def write(self, name: str, text: str) -> str:
        self.files += 1
        path = self.root / f"{self.index:03d}.{self.files:04d}.{name}"
        path.write_text(text)
        return str(path)

    def commands(self, family: str, argv: list[str]) -> str | None:
        """``argv`` in every flag mode; the JSON answer's text."""
        answer = None
        for flags in FLAGS:
            _, text = self.call(family, [*flags, *argv])
            if flags == ["--json"]:
                answer = text
        return answer

    def base(self, index: int, group: str, name: str, text: str) -> None:
        """Every command on one base. Each base draws from a random stream
        of its own and numbers its own files, so a changed answer changes
        no other base's records."""
        self.index, self.files = index, 0
        rng = random.Random(f"{SEED}/{index}")
        vocab = parse_kb(text, group).vocab
        kb = self.write(name, text)
        self.commands("worlds", ["worlds", kb])
        if group in SEARCH:
            self.commands(f"{group} {SEARCH[group]}", [group, SEARCH[group], kb])
            emitted = [self.commands(f"{group} sequences", [group, "sequences", kb])]
        elif group == "poss":
            query = _formula(rng, vocab)
            self.commands("poss query", ["poss", "query", kb, "--query", query])
            emitted = [self.commands("poss build", ["poss", "build", kb])]
        else:
            on = [arg for _ in range(rng.randint(1, 3)) for arg in ("--on", _formula(rng, vocab))]
            eps = rng.choice(["1/2", "1/3", "0.1", "1", "0", "3/4"])
            query = ["--query", _formula(rng, vocab)]
            emitted = [
                self.commands("prob condition", ["prob", "condition", kb, *on]),
                self.commands("prob threshold", ["prob", "threshold", kb, "--eps", eps, *on]),
                self.commands("prob query", ["prob", "query", kb, *on, *query]),
                self.commands("prob query", ["prob", "query", kb, *on, *query, "--eps", eps]),
            ]
        for answer in filter(None, emitted):  # a refused command prints nothing
            for seq in _load(answer)["sequences"]:
                for doc in [seq, *_corruptions(seq, rng)]:
                    path = self.write("seq.json", _dump(doc))
                    if group != "prob":
                        self.commands(f"{group} check", [group, "check", kb, path])
                    self.commands("explain", ["explain", path])


def _formula(rng: random.Random, vocab) -> str:
    return format_formula(genkit.random_formula(rng, vocab.names[:3], rng.randint(0, 2)))


def _corruptions(seq: dict, rng: random.Random) -> list[dict]:
    classes = seq["classes"]
    full = [k for k, cls in enumerate(classes) if cls]
    i, j = rng.choice(full), rng.randrange(len(classes))
    w = rng.choice(classes[i])
    others = [v for v in classes[i] if v is not w]

    def reclass(*edits):
        new = [list(cls) for cls in classes]
        for k, cls in edits:
            new[k] = cls
        return dict(seq, classes=new)

    def reweigh(weight):
        return reclass((i, [*others, dict(w, weight=weight)]))

    def reassign(assign):
        return reclass((i, [*others, dict(w, assign=assign)]))

    name = rng.choice(seq["vocab"]) if seq["vocab"] else None
    kind = rng.choice([k for k in KINDS if k != seq["kind"]])
    key = rng.choice(["kind", "vocab", "provenance"])
    copies = [
        dict(seq, classes=[[dict(v, weight="1") for v in cls] for cls in classes]),
        dict(seq, classes=[[{"assign": v["assign"]} for v in cls] for cls in classes]),
        reclass((i, classes[j]), (j, classes[i])),
        reclass((i, others), (j, classes[j] + [w])) if i != j else reclass((i, others)),
        reclass((j, classes[j] + [w])),
        reclass((j, classes[j] + [dict(w, weight="3/7")])),
        reclass((i, others)),
        dict(seq, kind=kind),
        reweigh(rng.choice(BAD_WEIGHTS)),
        {k: v for k, v in seq.items() if k != key},
    ]
    if len(classes) > 2:
        k = rng.randrange(len(classes) - 1)
        merged = classes[:k] + [classes[k] + classes[k + 1]] + classes[k + 2 :]
        copies.append(dict(seq, classes=merged, provenance=seq["provenance"][:-1]))
    if name is not None:
        copies.append(reassign(dict(w["assign"], **{name: rng.choice(BAD_VALUES)})))
        copies.append(reassign({k: v for k, v in w["assign"].items() if k != name}))
    copies.append(reassign(dict(w["assign"], extra=0)))
    return copies


def _bases(per_kind: int):
    """(group, file name, text) of every base, in order."""
    for path in sorted(DEMOS.iterdir()):
        yield cli._kind_of(path.name), path.name, path.read_text()
    makers = (
        ("default", "dl", genkit.random_default_theory),
        ("ael", "ael", genkit.random_premises),
        ("prob", "prob", genkit.random_space),
        ("poss", "poss", genkit.random_possibilistic_kb),
    )
    for k, (group, suffix, make) in enumerate(makers):
        rng = random.Random(SEED + k)
        for _ in range(per_kind):
            body = make(rng)
            yield group, f"kb.{suffix}", serialize_kb(KbDocument(group, body.vocab, body))
    lottery = lottery_space(25)
    yield "prob", "lottery.prob", serialize_kb(KbDocument("prob", lottery.vocab, lottery))
    names = [f"c{i}" for i in range(6)]
    rules = "".join(f"rule r{i}: true : M {c} / {c}\n" for i, c in enumerate(names[:3]))
    yield "default", "chain.dl", f"vocab: {' '.join(names)}\n{rules}"


def _run_demo(argv: list[str]) -> int:
    runpy.run_path(str(HERE.parent / argv[0]), run_name="__main__")
    return 0


def run(size: str, records=None) -> dict[str, str]:
    """The hex digest of each command family of the corpus of ``size``."""
    with tempfile.TemporaryDirectory(prefix="corpus") as tmp:
        corpus = Corpus(Path(tmp).resolve(), records)
        for index, (group, name, text) in enumerate(_bases(SIZES[size])):
            corpus.base(index, group, name, text)
        for script in DEMO_SCRIPTS:
            corpus.call("demos", [f"demos/{script.name}"], _run_demo)
    return {family: h.hexdigest() for family, h in sorted(corpus.digests.items())}


def read_digests(path: Path) -> dict[tuple[str, str], str]:
    """The committed digests, keyed by (size, family)."""
    found = {}
    for line in path.read_text().splitlines():
        digest, size, family = line.split(" ", 2)
        found[size, family] = digest
    return found


def _lines(size: str, digests: dict[str, str]) -> list[str]:
    return [f"{digest} {size} {family}" for family, digest in digests.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", action="store_true", help="run the short prefix only")
    parser.add_argument("--check", metavar="FILE", help="compare with committed digests")
    parser.add_argument("--write", metavar="FILE", help="write the digests of both sizes")
    parser.add_argument("--records", metavar="FILE", help="write every record")
    args = parser.parse_args(argv)
    records = open(args.records, "w") if args.records else None
    sizes = list(SIZES) if args.write else ["slice" if args.slice else "full"]
    lines = [line for size in sizes for line in _lines(size, run(size, records))]
    if records:
        records.close()
    if args.write:
        Path(args.write).write_text("\n".join(lines) + "\n")
    if args.check:
        expected = [f"{d} {s} {f}" for (s, f), d in read_digests(Path(args.check)).items()]
        expected = [line for line in expected if line.split(" ", 2)[1] in sizes]
        if lines != expected:
            print(f"digests differ from {args.check}:")
            print("\n".join(sorted(set(lines) ^ set(expected))))
            return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

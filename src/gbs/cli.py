"""Command-line front end.

Exit codes: 0 for yes/success, 1 for no, 2 for undecided, 3 for any input or
usage error and 3 for a fault of the package: a failed self-check (a witness
that does not verify) or any other exception, reported as one ``internal
error: ...`` line, never as a "no".  Exponents may have any number of digits.
Diagnostics go to stderr; reports are deterministic on stdout.

How a call runs: the words that name a command pick that command's own
parser, which reads the rest of the arguments; the top-level parser only
answers ``--help`` and a missing or unknown command.  Each input file is read
in one raw read and decoded as UTF-8.  Its line ends stay as they are: graph
and presentation files are split with ``str.splitlines`` and words at any
whitespace, which take CR LF and a lone CR as one line end, as they take LF.
``wp``, ``reduce`` and ``cyc-reduce`` share one loader, which refuses ``--base``
without ``--pi1``; one table maps every verdict to its exit code.  While a
command runs, the cyclic garbage collector is paused and int-string
conversions take any number of digits; both come back as the caller had them.
"""
from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from . import britton, conjugacy, graphs, monoid

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bound(text: str) -> int:
    """argparse type for ``--bound``: an integer >= 0."""
    if not text.removeprefix("-").isdecimal() or int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    try:
        with open(path, "rb", buffering=0) as file:
            return file.read().decode("utf-8")
    except OSError as exc:
        raise graphs.GbsError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise graphs.GbsError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _word_text(arg: str, literal: bool) -> str:
    return arg if literal else _read(arg)


def _word(args) -> graphs.GFactorization:
    """The word of ``wp``, ``reduce`` or ``cyc-reduce``; with ``--pi1``, its image."""
    if args.base is not None and not args.pi1:
        raise _UsageError("--base needs --pi1")
    graph = graphs.parse_graph(_read(args.graph))
    text = _word_text(args.word, args.literal)
    if args.pi1:
        return graphs.rebase(text, graph, min(graph.vertices) if args.base is None else args.base)
    return graphs.parse_factorization(text, graph)


def _monoid_query(args) -> tuple[monoid.MonPresentation, monoid.ExpVec, monoid.ExpVec]:
    """The presentation and both vectors of ``monoid congruent`` and ``convert``."""
    pres = monoid.parse_presentation(_read(args.presentation))
    return pres, monoid.parse_vector(args.e, pres.dim), monoid.parse_vector(args.f, pres.dim)


# a verdict missing here raises KeyError: an internal error, never a "no"
_EXIT = {
    conjugacy.ConjVerdict.CONJUGATE: EXIT_YES,
    conjugacy.ConjVerdict.NOT_CONJUGATE: EXIT_NO,
    conjugacy.ConjVerdict.UNKNOWN: EXIT_UNKNOWN,
    monoid.Verdict.CONGRUENT: EXIT_YES,
    monoid.Verdict.NOT_CONGRUENT: EXIT_NO,
    monoid.Verdict.UNKNOWN: EXIT_UNKNOWN,
}


def _cmd_validate(args) -> int:
    graph = graphs.parse_graph(_read(args.graph), check=False)
    report = graphs.validate(graph)
    if report:
        for line in report:
            print(line)
        return EXIT_ERROR
    print("valid")
    return EXIT_YES


def _cmd_wp(args) -> int:
    if britton.word_problem(_word(args)):
        print("trivial")
        return EXIT_YES
    print("nontrivial")
    return EXIT_NO


def _cmd_reduce(args) -> int:
    print(britton.britton_reduce_fast(_word(args)))
    return EXIT_YES


def _cmd_cyc_reduce(args) -> int:
    print(britton.cyclically_reduce(_word(args)))
    return EXIT_YES


def _cmd_conj(args) -> int:
    graph = graphs.parse_graph(_read(args.graph))
    v = graphs.parse_factorization(_word_text(args.v, args.literal), graph)
    w = graphs.parse_factorization(_word_text(args.w, args.literal), graph)
    res = conjugacy.conjugate(v, w, bound=args.bound)
    print(res.verdict.value)
    if res.verdict is conjugacy.ConjVerdict.CONJUGATE and args.witness:
        print(res.witness)
    return _EXIT[res.verdict]


def _cmd_monoid_congruent(args) -> int:
    pres, e, f = _monoid_query(args)
    res = monoid.congruent(e, f, pres, bound=args.bound)
    print(res.verdict.value)
    return _EXIT[res.verdict]


def _cmd_convert(args) -> int:
    graph, k, ell = monoid.monoid_to_gbs(*_monoid_query(args))
    out = graph.to_text()
    out += f"# query-v: a^{k}\n"
    out += f"# query-w: a^{ell}\n"
    print(out, end="")
    return EXIT_YES


def _build_parser() -> tuple[_Parser, dict[tuple[str, ...], _Parser]]:
    """The top-level parser, and each leaf command's parser keyed by the
    words that name it."""
    # the help shows the paragraphs for users, not how a call runs (and
    # nothing under python -OO, which drops docstrings)
    description = __doc__ and __doc__.partition("\n\nHow a call runs:")[0]
    parser = _Parser(prog="gbs", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: dict[tuple[str, ...], _Parser] = {}

    def leaf(subparsers, *words: str, **kwargs) -> _Parser:
        leaves[words] = subparsers.add_parser(words[-1], **kwargs)
        return leaves[words]

    word_opts = argparse.ArgumentParser(add_help=False)
    word_opts.add_argument(
        "--literal", action="store_true", help="take words as inline text, not file paths"
    )

    pi1_opts = argparse.ArgumentParser(add_help=False)
    pi1_opts.add_argument(
        "--pi1",
        action="store_true",
        help="interpret the word in the fundamental group over the spanning tree",
    )
    pi1_opts.add_argument("--base", default=None, help="base vertex for --pi1")

    p = leaf(sub, "validate", help="check a graph file")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_validate)

    for name, about, func in (
        ("wp", "word problem", _cmd_wp),
        ("reduce", "Britton-reduce", _cmd_reduce),
        ("cyc-reduce", "cyclically Britton-reduce", _cmd_cyc_reduce),
    ):
        p = leaf(sub, name, parents=[word_opts, pi1_opts], help=about)
        p.add_argument("graph")
        p.add_argument("word")
        p.set_defaults(func=func)

    p = leaf(sub, "conj", parents=[word_opts], help="conjugacy")
    p.add_argument("graph")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--bound", type=_bound, default=None)
    p.add_argument("--witness", action="store_true", help="print a verified conjugator")
    p.set_defaults(func=_cmd_conj)

    p = sub.add_parser("monoid", help="commutative monoid congruence")
    msub = p.add_subparsers(dest="subcommand", required=True)
    m = leaf(msub, "monoid", "congruent")
    m.add_argument("presentation")
    m.add_argument("e")
    m.add_argument("f")
    m.add_argument("--bound", type=_bound, default=None)
    m.set_defaults(func=_cmd_monoid_congruent)

    p = sub.add_parser("convert", help="instance converters")
    csub = p.add_subparsers(dest="subcommand", required=True)
    c = leaf(csub, "convert", "monoid-to-gbs")
    c.add_argument("presentation")
    c.add_argument("e")
    c.add_argument("f")
    c.set_defaults(func=_cmd_convert)

    return parser, leaves


# stateless: errors raise, parse_args returns a new namespace
_PARSER, _LEAVES = _build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)`` without the parsers above the leaf: the
    command words, which the top-level parser hands on unread, select the
    leaf's parser, which reads the rest.  Anything else, such as ``--help``
    or a missing or unknown command, goes to ``_PARSER``."""
    for n in (1, 2):
        leaf = _LEAVES.get(tuple(argv[:n]))
        if leaf is not None:
            return leaf.parse_args(argv[n:])
    return _PARSER.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    limits = hasattr(sys, "set_int_max_str_digits")  # absent before Python 3.10.7
    digits, enabled = (sys.get_int_max_str_digits() if limits else 0), gc.isenabled()
    try:
        if limits:
            sys.set_int_max_str_digits(0)  # exponents of any length, read and printed
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        # a command makes no reference cycles, so reference counting frees
        # all it drops, and a collection would only walk the graph it keeps
        gc.disable()
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except graphs.InternalError as exc:  # a subclass of GbsError: caught first
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except graphs.GbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug, never a verdict: exit 3, not the "no" code
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR
    finally:  # the caller's digit limit and collector state, on every exit
        if limits:
            sys.set_int_max_str_digits(digits)
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

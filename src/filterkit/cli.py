"""Command-line front end.

Exit codes follow one contract everywhere: 0 means success (or "the property
holds"), 1 means a well-formed negative answer (crash, simulation failure,
no accepting state), 2 means the input or invocation was bad, and 3 means a
search or construction budget ran out or a minimum is left unproven.
Everything written to stdout is byte-deterministic for a given input;
timing and diagnostics go to stderr.

``main(argv)`` returns the exit code and may be called any number of times
in one process: the argument parser is built on the first call and reused.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .errors import CapExceeded, FilterError, NfaError, NoAcceptingState
from .filters import DETERMINIZE_CAP
from .minimize import SearchBudget, minimize_det, minimize_nondet
from .nfa import INCLUSION_CAP
from .reductions import from_dfa_union, from_nfa_universality
from .simulation import output_simulates
from .textio import (
    emit_filter,
    filter_to_dot,
    format_string,
    parse_filter,
    parse_nfa,
    parse_string,
)
from .families import donut_world, fig3_input, fig3_minimizer, prime_family, prime_family_minimizer


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _emit(args, text):
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args):
    f = parse_filter(_read(args.filter))
    trimmed = f.trim()
    print(f"states: {f.size()}")
    print(f"observations: {len(f.observations)}")
    print(f"colors: {len(f.colors)}")
    print(f"deterministic: {'yes' if f.is_deterministic() else 'no'}")
    print(f"trim: {'yes' if trimmed.size() == f.size() else 'no'}")
    return 0


def _cmd_trace(args):
    f = parse_filter(_read(args.filter))
    seq = parse_string(args.string, f.observations)
    result = f.trace(seq)
    if result.crashed:
        print("crash")
        return 1
    print("states: " + ",".join(sorted(result.reached)))
    reached_colors = f.output(seq)
    print("output: " + ",".join(c for c in f.colors if c in reached_colors))
    return 0


def _cmd_determinize(args):
    f = parse_filter(_read(args.filter))
    det, _ = f._determinize(args.cap)
    _emit(args, emit_filter(det))
    return 0


def _cmd_trim(args):
    f = parse_filter(_read(args.filter))
    _emit(args, emit_filter(f.trim()))
    return 0


def _cmd_check_sim(args):
    candidate = parse_filter(_read(args.candidate))
    reference = parse_filter(_read(args.reference))
    verdict = output_simulates(candidate, reference, cap=args.cap)
    if verdict.holds:
        print("holds")
        return 0
    print(f"fails: {verdict.kind}")
    print(f"witness: {format_string(verdict.witness)}")
    if verdict.color is not None:
        print(f"color: {verdict.color}")
    return 1


def _cmd_minimize(args):
    f = parse_filter(_read(args.filter))
    budget = SearchBudget(
        max_k=args.max_k,
        candidate_cap=args.candidate_cap,
        time_cap=args.time_limit,
    )
    if args.mode == "det":
        result = minimize_det(f, budget)
    else:
        result = minimize_nondet(f, budget)
    stats = result.stats
    footer = [
        f"# states: {result.size()}",
        f"# proven_optimal: {'true' if result.proven_optimal else 'false'}",
        f"# lower_bound: {stats['lower_bound']}",
        f"# candidates: {stats['candidates']}",
    ]
    _emit(args, emit_filter(result.minimizer) + "\n".join(footer) + "\n")
    print(f"wall time: {stats['wall_time_s']:.3f}s", file=sys.stderr)
    print(f"level: {stats['level']}", file=sys.stderr)
    return 0 if result.proven_optimal else 3


def _cmd_gen(args):
    if args.family == "prime-family":
        maker = prime_family_minimizer if args.minimizer else prime_family
        f = maker(args.rows)
    elif args.family == "fig3":
        f = fig3_minimizer() if args.variant == "minimizer" else fig3_input()
    else:
        f = donut_world()
    _emit(args, emit_filter(f))
    return 0


def _cmd_reduce(args):
    if args.problem == "nfa-universality":
        automaton = parse_nfa(_read(args.inputs[0]))
        instance = from_nfa_universality(automaton)
    else:
        dfas = [parse_nfa(_read(path)) for path in args.inputs]
        instance = from_dfa_union(dfas)
    header = [f"# reduction: {instance.kind}", f"# fresh symbol: {instance.fresh_symbol}"]
    header += [f"# {key}: {instance.details[key]}" for key in sorted(instance.details)]
    _emit(args, "\n".join(header) + "\n" + emit_filter(instance.filter))
    return 0


def _cmd_export_dot(args):
    f = parse_filter(_read(args.filter))
    _emit(args, filter_to_dot(f))
    return 0


def _positive(kind):
    """An argparse type: a number of the given kind above zero."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, not {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse says "invalid int value: 'x'"
    return parse


def _output_flag(sub):
    sub.add_argument("-o", "--output", metavar="PATH", help="write to PATH instead of stdout")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="filterkit",
        description="Inspect, compare, minimize, and generate combinatorial filters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    sub = commands.add_parser("validate", help="parse a filter and report its shape")
    sub.add_argument("filter")
    sub.set_defaults(handler=_cmd_validate)

    sub = commands.add_parser("trace", help="feed an observation string to a filter")
    sub.add_argument("string")
    sub.add_argument("filter")
    sub.set_defaults(handler=_cmd_trace)

    sub = commands.add_parser("determinize", help="subset-construct an equivalent deterministic filter")
    sub.add_argument("filter")
    sub.add_argument("--cap", type=_positive(int), default=DETERMINIZE_CAP, help="abort past this many subsets")
    _output_flag(sub)
    sub.set_defaults(handler=_cmd_determinize)

    sub = commands.add_parser("trim", help="drop unreachable states")
    sub.add_argument("filter")
    _output_flag(sub)
    sub.set_defaults(handler=_cmd_trim)

    sub = commands.add_parser("check-sim", help="test whether CANDIDATE output-simulates REFERENCE")
    sub.add_argument("candidate")
    sub.add_argument("reference")
    sub.add_argument("--cap", type=_positive(int), default=INCLUSION_CAP, help="abort past this many reached-set pairs")
    sub.set_defaults(handler=_cmd_check_sim)

    sub = commands.add_parser("minimize", help="search for a smallest equivalent filter")
    sub.add_argument("filter")
    sub.add_argument("--mode", choices=("nondet", "det"), default="nondet")
    sub.add_argument("--max-k", type=_positive(int), default=None, help="only try sizes up to K")
    sub.add_argument("--time-limit", type=_positive(float), default=None, metavar="SECONDS")
    sub.add_argument("--candidate-cap", type=_positive(int), default=250_000)
    _output_flag(sub)
    sub.set_defaults(handler=_cmd_minimize)

    sub = commands.add_parser("gen", help="emit a built-in filter family")
    family = sub.add_subparsers(dest="family", metavar="FAMILY", required=True)
    fam = family.add_parser("prime-family", help="linear filter with a primorial-size minimizer")
    fam.add_argument("--rows", type=int, required=True)
    fam.add_argument("--minimizer", action="store_true", help="emit the exact deterministic minimizer")
    _output_flag(fam)
    fam = family.add_parser("fig3", help="ten-state filter and its smaller nondeterministic twin")
    fam.add_argument("variant", choices=("input", "minimizer"))
    _output_flag(fam)
    fam = family.add_parser("donut", help="two hidden agents on a three-region ring")
    _output_flag(fam)
    sub.set_defaults(handler=_cmd_gen)

    sub = commands.add_parser("reduce", help="build a minimization instance from an automaton problem")
    problem = sub.add_subparsers(dest="problem", metavar="PROBLEM", required=True)
    red = problem.add_parser("nfa-universality", help="universality as one-state minimizability")
    red.add_argument("inputs", nargs=1, metavar="NFA")
    _output_flag(red)
    red = problem.add_parser("dfa-union", help="union universality as deterministic one-state minimizability")
    red.add_argument("inputs", nargs="+", metavar="DFA")
    _output_flag(red)
    sub.set_defaults(handler=_cmd_reduce)

    sub = commands.add_parser("export-dot", help="render a filter as Graphviz DOT")
    sub.add_argument("filter")
    _output_flag(sub)
    sub.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None):
    """Run one command and return its exit code.  Bad usage and --version
    raise SystemExit from argparse, with the code the process would exit with."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except NoAcceptingState as exc:
        print(f"no reduction: {exc}", file=sys.stderr)
        return 1
    except (FilterError, NfaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

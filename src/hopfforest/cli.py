"""Command-line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 when the command
succeeds and every check passes, 1 when a verification or comparison fails,
2 for malformed input, unknown ids, or a table nested too deeply to evaluate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .algebra import Monomial, Scalar, coefficient_text
from .antipode import METHODS, antipode_generator, packed_route, term_stats
from .coproduct import (
    coassociativity_report,
    convolution_check,
    counit_report,
    frame_over,
    iterated_reduced,
)
from .errors import ConstructionError, InputError
from .hopfspec import CoproductSpec, faa_di_bruno_spec, load_spec_file, save_spec
from .linearize import chain_of, k_linearizations
from .prelie import (
    associativity_report,
    dualize,
    filtration_report,
    load_prelie_file,
    prelie_check,
)
from .trees import DecoratedTree, _vertices, enumerate_trees, pool_fill, tree_notation, view_of


def _print_check(name: str, problems: list[str]) -> bool:
    print(f"{name}: {'ok' if not problems else 'FAIL'}")
    for line in problems:
        print(f"  {line}", file=sys.stderr)
    return not problems


def _load_with_element(args: argparse.Namespace) -> CoproductSpec:
    """The --spec table, once --element is checked against it for every route."""
    spec = load_spec_file(args.spec)
    spec.degree(args.element)  # raises "unknown generator id N"
    return spec


def _cmd_antipode(args: argparse.Namespace) -> int:
    spec = _load_with_element(args)
    value = antipode_generator(spec, args.element, args.method)
    if args.format == "text":
        print(value.render())
    else:
        doc = {
            "element": args.element,
            "method": args.method,
            "terms": [
                {"monomial": list(m.indices), "coeff": coefficient_text(c)}
                for m, c in value.terms()
            ],
        }
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_coproduct(args: argparse.Namespace) -> int:
    spec = _load_with_element(args)
    if args.iterate < 1:
        raise InputError(f"--iterate must be >= 1, got {args.iterate}")
    value = iterated_reduced(spec, args.element, args.iterate)
    if args.format == "text":
        print(value.render())
    else:
        doc = {
            "element": args.element,
            "iterate": args.iterate,
            "terms": [
                {
                    "factors": [list(m.indices) for m in key],
                    "coeff": coefficient_text(c),
                }
                for key, c in value.terms()
            ],
        }
        print(json.dumps(doc, indent=2))
    return 0


def _tree_line(t: DecoratedTree, lam: Scalar) -> str:
    """The line `trees` prints for a tree of coefficient lam: its notation,
    then l, h, sign, λ and v.  One walk reads l (the vertices), h (those on
    a longest root-to-leaf path) and v (the product of b_left over them)."""
    height, lefts = 0, []
    for u, depth in _vertices(t):
        height = max(height, depth)
        lefts.append(u.left)
    sign = "-1" if len(lefts) % 2 else "+1"
    return (
        f"{tree_notation(t)} l={len(lefts)} h={height} sign={sign} "
        f"lambda={coefficient_text(lam)} v={Monomial(lefts).render()}"
    )


def _cmd_trees(args: argparse.Namespace) -> int:
    spec = _load_with_element(args)
    for t, lam in zip(*pool_fill(spec, args.element)):
        print(_tree_line(t, lam))
    return 0


def _cmd_linearizations(args: argparse.Namespace) -> int:
    spec = _load_with_element(args)
    if args.k < 1:
        raise InputError(f"--k must be >= 1, got {args.k}")
    for t in enumerate_trees(spec, args.element):
        view = view_of(t)
        lins = k_linearizations(view, args.k)
        print(f"{tree_notation(t)} k={args.k} count={len(lins)}")
        for lin in lins:
            print(f"  chain: {chain_of(view, lin).render()}")
    return 0


def _disagreements(spec: CoproductSpec, max_degree: int):
    """(id, None) if the routes agree on b_id, of degree <= max_degree, else
    (id, {method: antipode}); packed values that differ are decoded to decide."""
    ids = [i for i in spec.generator_ids() if spec.degree(i) <= max_degree]
    frame_over(spec, ids)  # one frame holds every route's memo
    for i in ids:
        one, *rest = (packed_route(m)(spec, i)[1] for m in METHODS)
        values = {m: antipode_generator(spec, i, m) for m in METHODS} if rest != [one] * 2 else {}
        yield i, values if len(set(values.values())) > 1 else None


def _max_degree(args: argparse.Namespace) -> int:
    """The --max-degree flag, at least 1; a command with an input file
    checks it after loading that file."""
    if args.max_degree < 1:
        raise InputError(f"--max-degree must be >= 1, got {args.max_degree}")
    return args.max_degree


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    max_degree = _max_degree(args)
    _print_check("structural validation", [])  # the loader validated the table
    ok = _print_check("coassociativity", coassociativity_report(spec, max_degree))
    ok &= _print_check("counit", counit_report(spec, max_degree))
    agreement = [
        f"methods disagree on generator {i}: "
        + "; ".join(f"{m}: {v.render()}" for m, v in values.items())
        for i, values in _disagreements(spec, max_degree)
        if values
    ]
    ok &= _print_check("method agreement", agreement)
    for method in METHODS:
        ok &= _print_check(
            f"antipode convolution ({method})",
            convolution_check(spec, max_degree, method),
        )
    print(f"VERIFY: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    max_degree = _max_degree(args)
    all_agree = True
    for i, values in _disagreements(spec, max_degree):
        agree = values is None
        all_agree &= agree
        stats = term_stats(spec, i)
        label = spec.generators[i].display()
        print(
            f"{label}: dyson-salam={stats.dyson_salam_terms} "
            f"forest={stats.forest_terms} agree={'yes' if agree else 'NO'}"
        )
    return 0 if all_agree else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    sys.stdout.write(save_spec(faa_di_bruno_spec(_max_degree(args))))
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    prelie = load_prelie_file(args.prelie)
    sys.stdout.write(save_spec(dualize(prelie, _max_degree(args))))
    return 0


def _cmd_prelie_verify(args: argparse.Namespace) -> int:
    spec = load_prelie_file(args.prelie)
    ok = _print_check("preLie identity", prelie_check(spec))
    ok &= _print_check("product associativity", associativity_report(spec))
    ok &= _print_check("length filtration", filtration_report(spec))
    print(f"VERIFY: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_SPEC = ("--spec", {"required": True})
_ELEMENT = ("--element", {"required": True, "type": int})
_MAX_DEGREE = ("--max-degree", {"required": True, "type": int})
_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

#: Each subcommand's handler, help line and (flag, add_argument keywords)
#: pairs, in the order `--help` lists them.  The arguments of `gen` belong to
#: its one generator, `fdb`.
_COMMANDS = {
    "antipode": (
        _cmd_antipode,
        "antipode of one generator",
        (
            ("--spec", {"required": True, "help": "coproduct table (JSON file)"}),
            ("--element", {"required": True, "type": int, "help": "generator id"}),
            ("--method", {"required": True, "choices": METHODS}),
            _FORMAT,
        ),
    ),
    "coproduct": (
        _cmd_coproduct,
        "iterated reduced coproduct of one generator",
        (
            _SPEC,
            _ELEMENT,
            (
                "--iterate",
                {
                    "type": int,
                    "default": 2,
                    "metavar": "K",
                    "help": "tensor rank K of the iterate "
                    "(default 2: the reduced coproduct)",
                },
            ),
            _FORMAT,
        ),
    ),
    "trees": (_cmd_trees, "realized trees behind one generator", (_SPEC, _ELEMENT)),
    "linearizations": (
        _cmd_linearizations,
        "level assignments of each realized tree",
        (
            _SPEC,
            _ELEMENT,
            ("--k", {"required": True, "type": int, "help": "number of levels"}),
        ),
    ),
    "verify": (_cmd_verify, "run every consistency check", (_SPEC, _MAX_DEGREE)),
    "compare": (
        _cmd_compare, "method agreement and term counts", (_SPEC, _MAX_DEGREE)
    ),
    "gen": (_cmd_gen, "emit built-in spec documents", (_MAX_DEGREE,)),
    "dualize": (
        _cmd_dualize,
        "coproduct table dual to a preLie spec",
        (
            ("--prelie", {"required": True, "help": "preLie spec (JSON file)"}),
            _MAX_DEGREE,
        ),
    ),
    "prelie-verify": (
        _cmd_prelie_verify,
        "preLie identity and product checks",
        (("--prelie", {"required": True}),),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, with a subparser for each command."""
    parser = argparse.ArgumentParser(
        prog="hopfforest",
        description=(
            "Exact antipode computations for graded right-handed polynomial "
            "Hopf algebras, by alternating-sum, recursive and cancellation-"
            "free tree methods."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "gen":
            gen_sub = p.add_subparsers(dest="generator", required=True)
            p = gen_sub.add_parser("fdb", help="composition Hopf algebra table")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _plain_args(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The parser's namespace for a plain argv, ``NAME [fdb] --flag VALUE ...``
    of str tokens, each flag NAME's own, exact and given once, and no value
    starting with "-"; values go through `_COMMANDS`' type, choices and
    default.  None for any other argv, so every message stays the parser's."""
    if not argv or not all(type(token) is str for token in argv) or argv[0] not in _COMMANDS:
        return None
    name, *rest = argv
    args = {"command": name}
    if name == "gen":
        if rest[:1] != ["fdb"]:
            return None
        args["generator"], *rest = rest
    flags, given = dict(_COMMANDS[name][2]), dict(zip(rest[::2], rest[1::2]))
    # an odd count, a repeated flag or any other word is not plain
    if len(given) * 2 != len(rest) or not given.keys() <= flags.keys():
        return None
    for flag, options in flags.items():
        value = given.get(flag, options.get("default"))
        if flag not in given:
            if options.get("required"):
                return None
        elif value.startswith("-"):
            return None
        else:
            try:
                value = options.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in options and value not in options["choices"]:
                return None
        args[flag[2:].replace("-", "_")] = value
    return argparse.Namespace(**args)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one command; returns the process exit code.  A plain
    argv (`_plain_args`) builds no parser; argparse reads any other."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help; pass both through
            return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # a valid table nested too deeply: input, not a failed check
        limit = sys.getrecursionlimit()
        print(f"error: table nests deeper than recursion limit {limit}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

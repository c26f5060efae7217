"""Command-line front end.

Subcommands: degree, lift, check, build, recover, roundtrip, morphism,
table-dump.  All I/O is JSON with exact 'p/q' scalars; reports embed the
tool version, seed, and budgets, and identical invocations produce
byte-identical output.

Exit codes: 0 success / check passed; 1 counterexample, failed check, or
round-trip mismatch; 2 parse error; 3 no lifting found (input not dissident
within budget, or a kernel beyond the prime ladder); 4 ambiguous kernel; 5
parity violation (solver bug signal).

Each process runs one command, and starting it is a large share of a
command's time, since every module it loads is compiled from source where
no bytecode cache is written.  So this module imports at its top only what
every command runs (dissident, exact, serialize), each command imports the
rest itself, and main builds the argument parser of the named command
alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .dissident import (
    DissidentMap,
    DissidentTriple,
    MatrixQuadruple,
    dissidence_falsify,
    quadruple_to_triple,
    random_quadruple,
    triple_morphism_check,
)
from .exact import Matrix
from .serialize import (
    ParseError,
    algebra_to_json,
    canonical_json,
    lifting_to_json,
    load_typed_file,
    matrix_to_json,
    tensor_to_json,
    triple_to_json,
    vector_to_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NO_LIFTING = 3
EXIT_AMBIGUOUS = 4
EXIT_PARITY = 5


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _degree_bound(text):
    value = int(text)
    if not 1 <= value <= 5:
        raise argparse.ArgumentTypeError("must be between 1 and 5")
    return value


def _add_common(sub, budgets=True):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--json-out", metavar="PATH", help="also write the report to PATH")
    if budgets:
        sub.add_argument("--trials", type=_positive_int, default=1000,
                         help="dissidence / division budget (default 1000)")
        sub.add_argument("--samples", type=_positive_int, default=64,
                         help="pointwise validation samples (default 64)")
        sub.add_argument("--max-degree", type=_degree_bound, default=5,
                         help="largest candidate degree scanned (default 5)")


# The names of the embedded inputs, the keys of builtins.BUILTINS, listed
# here so that building a parser loads no module to offer them.
BUILTIN_NAMES = ("cross3", "cross7", "identity-quadruple", "octonions", "quaternions")


def _add_input_flags(sub):
    sub.add_argument("--input", metavar="PATH",
                     help="kinded JSON input (map, triple, or quadruple)")
    sub.add_argument("--builtin", choices=BUILTIN_NAMES,
                     help="use an embedded input")
    sub.add_argument("--quadruple", metavar="random|PATH",
                     help="'random' (from --seed) or a quadruple JSON path")


def _add_emit(sub, what):
    sub.add_argument("--emit", metavar="PATH", help=f"write the bare {what} JSON to PATH")


def _add_input_and_common(p):
    _add_input_flags(p)
    _add_common(p)


def _add_lift(p):
    _add_input_flags(p)
    _add_emit(p, "lifting")
    _add_common(p)


def _add_check(p):
    p.add_argument("--what", required=True,
                   choices=["division", "quadratic", "dissident", "g2"])
    _add_input_flags(p)
    p.add_argument("--matrix", metavar="PATH", help="matrix JSON (for --what g2)")
    _add_common(p)


def _add_build(p):
    p.add_argument("--triple", metavar="PATH", help="triple JSON path")
    _add_input_flags(p)
    _add_emit(p, "algebra")
    _add_common(p)


def _add_recover(p):
    p.add_argument("--input", metavar="PATH", help="algebra JSON path")
    p.add_argument("--builtin", choices=["octonions", "quaternions"])
    _add_emit(p, "triple")
    _add_common(p)


def _add_morphism(p):
    p.add_argument("--kind", required=True, choices=["triple", "algebra"])
    p.add_argument("--src", required=True, metavar="PATH|builtin")
    p.add_argument("--dst", required=True, metavar="PATH|builtin")
    p.add_argument("--f", required=True, metavar="PATH", help="matrix JSON of the map")
    _add_common(p)


def _add_table_dump(p):
    p.add_argument("--builtin", choices=["octonions", "quaternions"], default="octonions")
    _add_emit(p, "tensor")
    _add_common(p, budgets=False)


def build_parser(command=None):
    """The argument parser of every command, or of ``command`` alone.

    Both parse a command's argv alike.  argparse reports an unrecognized
    argument with the top-level usage, which lists every command, so the
    parser of one command gives its subparsers that list as their metavar.
    The full parser gives none, since a metavar would also rename the
    argument in its "required" and "invalid choice" errors.
    """
    parser = argparse.ArgumentParser(
        prog="divalg",
        description="Exact computations with dissident maps, their liftings, "
                    "and the quadratic division algebras they generate.",
    )
    parser.add_argument("--version", action="version", version=f"divalg {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


# ---------------------------------------------------------------------------
# input plumbing


def _make_qda(triple):
    from .qda import make_qda

    return make_qda(triple)


# Conversions between input kinds, by class name, all through the triple:
# quadruple -> triple -> map, triple -> algebra, and a bare map is the
# triple with xi = 0.  The algebra is named, not imported, so that only the
# commands that work on algebras load qda.
_CONVERT = {
    ("MatrixQuadruple", "DissidentTriple"): quadruple_to_triple,
    ("DissidentMap", "DissidentTriple"): lambda eta: DissidentTriple(
        eta.n, Matrix.zeros(eta.n, eta.n), eta),
    ("DissidentTriple", "DissidentMap"): lambda triple: triple.eta,
    ("DissidentTriple", "AlgebraPresentation"): _make_qda,
}

# The kinds a command takes, the first being the one it works on.
_MAP_INPUT = (DissidentMap, DissidentTriple, MatrixQuadruple)
_TRIPLE_INPUT = (DissidentTriple, DissidentMap, MatrixQuadruple)


def _algebra_input():
    """The kinds an algebra command takes, the algebra first (loads qda)."""
    from .qda import AlgebraPresentation

    return (AlgebraPresentation, DissidentTriple, MatrixQuadruple)


# Source flags that name the one kind their file must hold.
_TYPED_SOURCES = {"quadruple": MatrixQuadruple, "triple": DissidentTriple}


def _resolve(args, kinds):
    """Decode the one source flag given in args and convert it to kinds[0].

    Returns (object, report description).  A ParseError (exit 2) is raised
    unless exactly one source is given and it decodes to one of `kinds` (to
    the flag's own kind, for the flags in _TYPED_SOURCES).  A file of
    another kind is refused before it is decoded.
    """
    flags = [f for f in ("input", "builtin", "quadruple", "triple") if hasattr(args, f)]
    given = [f for f in flags if getattr(args, f)]
    if len(given) != 1:
        raise ParseError("give exactly one of " + ", ".join(f"--{f}" for f in flags))
    flag = given[0]
    value = getattr(args, flag)
    accepted = (_TYPED_SOURCES[flag],) if flag in _TYPED_SOURCES else kinds
    if flag == "builtin":
        from .builtins import load_builtin

        obj, desc = load_builtin(value), {"builtin": value}
    elif flag == "quadruple" and value == "random":
        obj, desc = random_quadruple(args.seed), {"quadruple": "random", "seed": args.seed}
    else:
        obj, desc = load_typed_file(value, accepted), {"path": value}
    if not isinstance(obj, accepted):
        names = " or ".join(k.__name__ for k in accepted)
        raise ParseError(f"{value} decodes to {type(obj).__name__}; expected {names}")
    wanted = kinds[0]
    if not isinstance(obj, (wanted, DissidentTriple)):
        obj = _CONVERT[type(obj).__name__, "DissidentTriple"](obj)
    if not isinstance(obj, wanted):
        obj = _CONVERT["DissidentTriple", wanted.__name__](obj)
    return obj, desc


def _shape_checked(check, *args):
    """check(*args), with the ValueError it raises on wrong-shaped or zero
    matrices turned into a ParseError (exit 2)."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _header(args, command, extra_budgets=None):
    budgets = {}
    for key in ("trials", "samples", "max_degree"):
        if hasattr(args, key):
            budgets[key] = getattr(args, key)
    budgets.update(extra_budgets or {})
    return {
        "tool": "divalg",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "budgets": budgets,
    }


def _emit(report, args, emit_doc=None):
    """Write the files --json-out and --emit name, then the report to stdout.
    A file that cannot be written is a ParseError (exit 2) before any print."""
    text = canonical_json(report)
    files = [(getattr(args, "json_out", None), text)]
    if emit_doc is not None:
        files.append((getattr(args, "emit", None), canonical_json(emit_doc)))
    for path, content in files:
        if path:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _pair_to_json(witness):
    """A dissidence witness (v, w), or None, as report JSON."""
    return None if witness is None else {"v": vector_to_json(witness[0]),
                                         "w": vector_to_json(witness[1])}


# ---------------------------------------------------------------------------
# commands


def cmd_degree(args, emit_lifting=False):
    eta, desc = _resolve(args, _MAP_INPUT)
    report = _header(args, "lift" if emit_lifting else "degree")
    report["input"] = desc
    report["n"] = eta.n
    witness = dissidence_falsify(eta, args.trials, args.seed)
    report["dissidence"] = {"trials": args.trials, "counterexample": _pair_to_json(witness)}
    if witness is not None:
        report["error"] = "input is not dissident; no lifting exists"
        _emit(report, args)
        return EXIT_NO_LIFTING
    from .lifting import AmbiguousKernel, NoLiftingFound, solve_lifting_scan
    from .modkernel import ModularKernelError

    try:
        lifting, scan, verification = solve_lifting_scan(
            eta, samples=args.samples, seed=args.seed, max_degree=args.max_degree
        )
    except (NoLiftingFound, ModularKernelError, AmbiguousKernel) as exc:
        # the prime ladder is a budget: a kernel it cannot reconstruct is
        # no lifting found within budget
        report["error"] = str(exc)
        _emit(report, args)
        return EXIT_AMBIGUOUS if isinstance(exc, AmbiguousKernel) else EXIT_NO_LIFTING
    report["scan"] = scan
    report["degree"] = lifting.degree
    report["lifting"] = doc = lifting_to_json(lifting)
    report["verification"] = verification
    if eta.n == 7 and lifting.degree % 2 == 0:
        report["error"] = f"even degree {lifting.degree} on R^7 (parity violation)"
        _emit(report, args)
        return EXIT_PARITY
    _emit(report, args, emit_doc=doc if emit_lifting else None)
    return EXIT_OK


def cmd_lift(args):
    return cmd_degree(args, emit_lifting=True)


def cmd_check(args):
    report = _header(args, "check")
    report["what"] = args.what
    if args.what == "g2":
        from .octonion import g2_check

        if not args.matrix:
            raise ParseError("--what g2 needs --matrix PATH")
        m = load_typed_file(args.matrix, (Matrix,))
        report["input"] = {"path": args.matrix}
        ok = _shape_checked(g2_check, m)
        report["pass"] = ok
        _emit(report, args)
        return EXIT_OK if ok else EXIT_FAIL

    if args.what == "dissident":
        eta, desc = _resolve(args, _MAP_INPUT)
        report["input"] = desc
        witness = dissidence_falsify(eta, args.trials, args.seed)
        report["pass"] = witness is None
        report["counterexample"] = _pair_to_json(witness)
        report["note"] = ("no counterexample in budget; consistent with dissident"
                          if witness is None else "exact witness found")
        _emit(report, args)
        return EXIT_OK if witness is None else EXIT_FAIL

    from .qda import division_check, quadratic_check

    alg, desc = _resolve(args, _algebra_input())
    report["input"] = desc
    if args.what == "quadratic":
        ok = quadratic_check(alg)
        report["pass"] = ok
        _emit(report, args)
        return EXIT_OK if ok else EXIT_FAIL

    witness = division_check(alg, args.trials, args.seed)
    report["pass"] = witness is None
    report["counterexample"] = None if witness is None else vector_to_json(witness)
    report["note"] = ("no singular multiplication operator in budget; "
                      "sampled, not certified" if witness is None
                      else "exact witness: det L_a = 0 or det R_a = 0")
    _emit(report, args)
    return EXIT_OK if witness is None else EXIT_FAIL


def cmd_build(args):
    alg, desc = _resolve(args, _algebra_input())
    report = _header(args, "build")
    report["input"] = desc
    doc = algebra_to_json(alg)
    report["result"] = doc
    _emit(report, args, emit_doc=doc)
    return EXIT_OK


def cmd_recover(args):
    from .octonion import NotQuadratic
    from .qda import (AlgebraPresentation, BadDimension, IndefiniteForm, IrrationalGram,
                      recover_triple)

    alg, desc = _resolve(args, (AlgebraPresentation,))
    report = _header(args, "recover")
    report["input"] = desc
    try:
        triple = recover_triple(alg)
    except IrrationalGram as exc:
        report["error"] = "orthonormalization leaves the rationals"
        report["certificate"] = {
            "orthogonal_basis": [vector_to_json(v) for v in exc.basis],
            "diagonal_norms": vector_to_json(exc.diagonal),
        }
        _emit(report, args)
        return EXIT_FAIL
    except (NotQuadratic, IndefiniteForm, BadDimension) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        _emit(report, args)
        return EXIT_FAIL
    doc = triple_to_json(triple)
    report["result"] = doc
    _emit(report, args, emit_doc=doc)
    return EXIT_OK


def cmd_roundtrip(args):
    from .octonion import NotQuadratic
    from .qda import BadDimension, IndefiniteForm, IrrationalGram, make_qda, recover_triple

    triple, desc = _resolve(args, _TRIPLE_INPUT)
    report = _header(args, "roundtrip")
    report["input"] = desc
    algebra = make_qda(triple)
    try:
        recovered = recover_triple(algebra)
    except (NotQuadratic, IndefiniteForm, BadDimension, IrrationalGram) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        _emit(report, args)
        return EXIT_FAIL
    match = recovered == triple
    report["match"] = match
    if not match:
        report["diff"] = {
            "xi_original": matrix_to_json(triple.xi),
            "xi_recovered": matrix_to_json(recovered.xi),
            "eta_original": tensor_to_json(triple.eta.tensor),
            "eta_recovered": tensor_to_json(recovered.eta.tensor),
        }
    _emit(report, args)
    return EXIT_OK if match else EXIT_FAIL


def cmd_morphism(args):
    report = _header(args, "morphism")
    report["kind"] = args.kind
    f = load_typed_file(args.f, (Matrix,))
    if args.kind == "triple":
        kinds, check = _TRIPLE_INPUT, triple_morphism_check
    else:
        from .qda import algebra_morphism_check

        kinds, check = _algebra_input(), algebra_morphism_check
    # a side names a builtin or a file, of any kind that roundtrip (a
    # triple side) or build (an algebra side) accepts
    sides = [_resolve(argparse.Namespace(**{"builtin" if value in BUILTIN_NAMES else "input":
                                            value}), kinds)[0]
             for value in (args.src, args.dst)]
    report["input"] = {"src": args.src, "dst": args.dst, "f": args.f}
    ok = _shape_checked(check, *sides, f)
    report["pass"] = ok
    _emit(report, args)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_table_dump(args):
    from .octonion import structure_table

    dim = 8 if args.builtin == "octonions" else 4
    table = structure_table(dim)
    report = _header(args, "table-dump")
    doc = {"kind": "structure_table", "dim": dim, "tensor": tensor_to_json(table)}
    report["result"] = doc
    _emit(report, args, emit_doc=doc)
    return EXIT_OK


# name -> (help, the adder of its arguments, handler), in the order the
# full parser lists them
_COMMANDS = {
    "degree": ("degree of a dissident map via the minimal lifting",
               _add_input_and_common, cmd_degree),
    "lift": ("compute and verify the lifting of the projective map", _add_lift, cmd_lift),
    "check": ("run one exact or sampled check", _add_check, cmd_check),
    "build": ("build the algebra of a triple or quadruple", _add_build, cmd_build),
    "recover": ("recover the triple of a quadratic presentation", _add_recover, cmd_recover),
    "roundtrip": ("build then recover; exit 0 iff exactly equal",
                  _add_input_and_common, cmd_roundtrip),
    "morphism": ("check a triple or algebra morphism", _add_morphism, cmd_morphism),
    "table-dump": ("dump a structure-constant tensor", _add_table_dump, cmd_table_dump),
}


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # One BLAS thread, set before numpy loads OpenBLAS, which reads it
        # at load.  A second thread adds about 0.07 s of CPU and wall time
        # to the load and speeds up none of the small products here, and
        # each float64 product is exact integer arithmetic below 2**53, so
        # no output changes.  The count is forced, not defaulted, because a
        # caller's environment often sets it to the CPU count.  A process
        # that has loaded numpy already keeps its setting.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.environ["OMP_NUM_THREADS"] = "1"
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command named first is the one argparse picks: only its parser is
    # built, and every other argv gets the full one
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ParseError as exc:
        sys.stdout.write(canonical_json({"error": f"parse error: {exc}"}))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

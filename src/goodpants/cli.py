"""Command-line front end.

Commands: ``build`` constructs and grows a pants complex and develops
it; ``verify`` runs the certification checks on a stored complex;
``homology`` computes first-homology groups; ``lemma`` runs the
sampling sweeps.  All reports are canonical JSON (sorted keys); sweep
commands also write CSV.  Exit codes: 0 success; 2 refused input, usage
errors, disconnected complexes and unwritable ``--out`` paths included; 3
construction failure, such as numbers past double precision; 4 a failed
check.  Exits 2 and 3 print one JSON error line on stderr.  ``main``
alone turns an exception into 2 or 3, by its class: an ``ArithmeticError``
(``geom.DegenerateError`` included) exits 3, any other ``ValueError`` 2.

A command accepts only the options its handler reads: each ``lemma``
sweep is a subcommand with its own options, and ``homology`` takes
exactly one of ``--complex``, ``--book`` and ``--free-product``, with
``--g`` and ``--p`` only beside ``--book``.  Any other option is a usage
error, so it exits 2 instead of being ignored.  So is a negative
``--seed``, which no generator takes.

The ``GOODPANTS_THREADS`` environment variable is validated (an
integer >= 1) but nothing runs in parallel.  Each sample of a sampler
draws from its own seed, or from one stream in a fixed order.  Every
stream comes from ``goodpants.streams``, which computes the raw words
of numpy's SeedSequence/PCG64 streams as arrays or in Python ints, and
the draws numpy's Generator makes from them, so no command loads
``numpy.random``.  The QI sampler evaluates slices of samples as arrays
with the bits of one-at-a-time evaluation, so reports never depend on
its value.

A command loads only the modules it runs: this module imports the
standard library and the version at its top, and each handler imports
what it calls inside its own body.  So ``homology``, every ``lemma``
sweep but ``delta``, ``build`` at any ``--tau``, ``--version``,
``--help`` and usage errors start without numpy, and only the sampled
``lemma`` sweeps load ``lemmalab``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 4
# the exit code of each error: 2 for refused input, 3 for a failed construction
_EXIT_FOR = {"invalid-config": 2, "construction-failed": 3, "not-viable": EXIT_CHECK_FAILED}

# a development is viable when its residual stays below this
VIABLE_RESIDUAL = 1e-6


class ConfigError(ValueError):
    """The command line or an input file is invalid."""


def thread_cap() -> int:
    """The validated GOODPANTS_THREADS value (>= 1, default 1).

    Nothing runs in parallel: the value is checked and then unused, and
    reports are byte-identical whatever it is.
    """
    raw = os.environ.get("GOODPANTS_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GOODPANTS_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError("GOODPANTS_THREADS must be at least 1")
    return n


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError; subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _finite_R(value) -> float:
    """--R as a float, refused when it is nan or infinite."""
    R = float(value)
    if not math.isfinite(R):
        raise ConfigError(f"--R must be finite, got {R!r}")
    return R


def _seed(value: str) -> int:
    """--seed as a non-negative int; argparse names the option on refusal."""
    try:
        seed = int(value)
    except ValueError:
        # the words argparse uses for a type=int option
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _development_options(args) -> float:
    """Refuse --p, --R and --tau values that no development takes.

    build, verify and lemma angle-change develop a complex.  Returns --R.
    """
    if args.p < 2:
        raise ConfigError("--p must be at least 2")
    R = _finite_R(args.R)
    if R <= 0:
        raise ConfigError("--R must be positive")
    if not 0.0 <= getattr(args, "tau", 0.0) <= 1.0:
        raise ConfigError("--tau must lie in [0, 1]")
    return R


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_error(code: str, message: str) -> int:
    """Print one JSON error line on stderr; return the exit code it goes with."""
    sys.stderr.write(canonical_json({"error": {"code": code, "message": message}}) + "\n")
    return _EXIT_FOR[code]


def _write(path: str | None, text: str) -> None:
    """Write text and a final newline to path, or to stdout for None or "-"."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _load_complex(path: str):
    """The complex stored at path, once it passes validate."""
    from .complexes import PantsComplex, validate

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        x = PantsComplex.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a valid complex file: {exc}") from exc
    bad = validate(x)
    if bad:
        raise ConfigError(f"{path} fails validation: {bad[0]}")
    return x


def _params_for(x, args):
    """The development's parameters; a non-zero --tau draws with --seed."""
    from .holonomy import RepParams

    if args.tau != 0.0:
        return RepParams.random(x, R=args.R, tau=args.tau, seed=args.seed)
    return RepParams.zero(x, R=args.R, tau=args.tau)


def _group_json(group) -> dict:
    return {"rank": group.rank, "torsion": list(group.torsion), "describe": group.describe()}


def _report_header(args, command: str) -> dict:
    # the output path is where the report goes, not part of what was
    # computed; leaving it out keeps reports byte-identical across runs
    # that only differ in destination
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and v is not None
    }
    return {"version": __version__, "command": command, "config": config}


def cmd_build(args) -> int:
    from .complexes import build_xp, complexity, graph_of, grow_until
    from .holonomy import build_rho, development_residual

    if args.genus < 1:
        raise ConfigError("--genus must be at least 1")
    _development_options(args)
    if args.tau != 0.0 and args.seed is None:
        raise ConfigError("--tau > 0 needs --seed to draw the perturbation")
    if args.L < 0:
        raise ConfigError("--L must be non-negative")
    x = build_xp(args.genus, args.p)
    if args.L > 0:
        x = grow_until(x, args.L)
    length, neg_count = complexity(graph_of(x))
    rho = build_rho(x, _params_for(x, args))
    residual = development_residual(rho)
    if args.out is not None:
        _write(args.out, x.to_json())
    summary = _report_header(args, "build")
    summary.update(
        {
            "pants": len(x.pants),
            "circles": len(x.circles),
            "singular_circles": x.singular_circles(),
            "complexity": [length, neg_count],
            "max_residual": residual,
            # one stable letter per circle outside the spanning tree:
            # the cycle rank of the connected pants graph
            "stable_letters": len(x.regular_circles()) - len(x.pants) + 1,
        }
    )
    sys.stdout.write(canonical_json(summary) + "\n")
    if not residual < VIABLE_RESIDUAL:
        return _emit_error(
            "not-viable",
            f"development residual {residual!r} is not below {VIABLE_RESIDUAL!r}",
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .holonomy import build_rho, check_p_separated, development_residual

    _development_options(args)
    if args.words < 1:
        raise ConfigError("--words must be at least 1")
    if args.samples < 1:
        raise ConfigError("need at least one sample")
    x = _load_complex(args.complex)
    rho = build_rho(x, _params_for(x, args))
    residual = development_residual(rho)
    separated = check_p_separated(rho, args.p)
    from .elementwise import certify_qi, nontriviality_scan

    qi = certify_qi(R=args.R, p=args.p, samples=args.samples, seed=args.seed)
    scan = nontriviality_scan(rho, max_length=args.words)
    checks = {
        "viability": {"max_residual": residual, "pass": residual < VIABLE_RESIDUAL},
        "p_separated": {"p": args.p, "pass": separated},
        "quasi_isometry": {
            "samples": qi.samples,
            "violations": qi.violations,
            "min_margin": qi.min_margin,
            "min_ratio": qi.min_ratio,
            "max_ratio": qi.max_ratio,
            "pass": qi.passed,
        },
        "nontriviality": {
            "max_length": scan.max_length,
            "alphabet": scan.n_generators,
            "total_words": scan.total_words,
            "violations": [list(w) for w in scan.violations],
            "pass": scan.passed,
        },
    }
    report = _report_header(args, "verify")
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks.values())
    _write(args.out, canonical_json(report))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_homology(args) -> int:
    from .homology import AbelianGroup, book_of_i_bundles_h1, free_product_h1, h1_of_complex
    from .homology import mv_torsion_embedding, sigma

    if args.book:
        args.g = 1 if args.g is None else args.g
        args.p = 3 if args.p is None else args.p
    elif args.g is not None or args.p is not None:
        raise ConfigError("--g and --p are read only with --book")
    # the parser lets exactly one mode through; an empty path is a mode too
    report = _report_header(args, "homology")
    if args.complex is not None:
        x = _load_complex(args.complex)
        report["h1"] = _group_json(h1_of_complex(x))
    elif args.book:
        if args.g < 1 or args.p < 2:
            raise ConfigError("--book needs --g >= 1 and --p >= 2")
        report["h1"] = _group_json(book_of_i_bundles_h1(args.g, args.p))
        report["sigma"] = sigma(args.p, args.g)
        report["surviving_torsion"] = _group_json(mv_torsion_embedding(args.p, args.g))
    else:
        groups = []
        for path in args.free_product:
            try:
                with open(path, encoding="utf-8") as fh:
                    obj = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read group file {path}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ConfigError(f"{path} is not a group or complex file")
            if "pants" in obj:
                groups.append(h1_of_complex(_load_complex(path)))
                continue
            # a group file names Z^rank + Z/t_1 + Z/t_2 + ... with orders
            # t_i > 1 in any order; each summand joins the free product as
            # a factor, and free_product_h1 gives the invariant factors
            from .complexes import _integer

            try:
                groups.append(AbelianGroup(rank=_integer(obj.get("rank"), "rank")))
                orders = obj.get("torsion", [])
                if not isinstance(orders, list):
                    raise ValueError(f"torsion must be a list, got {orders!r}")
                groups += [
                    AbelianGroup(rank=0, torsion=(_integer(t, "torsion order"),)) for t in orders
                ]
            except ValueError as exc:
                raise ConfigError(f"{path} is not a group or complex file: {exc}") from exc
        report["h1"] = _group_json(free_product_h1(groups))
    _write(args.out, canonical_json(report))
    return EXIT_OK


def _parse_R_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part]
    except ValueError as exc:
        raise ConfigError(f"bad R list {raw!r}") from exc
    return [_finite_R(R) for R in values]


def cmd_lemma(args) -> int:
    if args.out is not None and not os.path.basename(args.out):
        raise ConfigError(f"--out needs a file name prefix, got {args.out!r}")
    report = _run_lemma(args)
    if args.out is None:
        _write(None, report.to_json())
    else:
        _write(args.out + ".json", report.to_json())
        _write(args.out + ".csv", report.to_csv())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_lemma(args):
    # only lemma runs the sweeps, so only lemma imports them; the hexagon
    # sweep needs no lemmalab, and of the sampled ones only delta loads
    # numpy, where it runs
    if args.name == "hexagon":
        from .sweeps import hexagon_asymptotics_check

        return hexagon_asymptotics_check(_parse_R_list(args.R))
    from .lemmalab import angle_change_check, quasigeodesic_stability_check
    from .lemmalab import two_planes_angle_check

    if args.name == "delta":
        return quasigeodesic_stability_check(args.delta, samples=args.samples, seed=args.seed)
    if args.name == "two-planes":
        return two_planes_angle_check(
            args.eps, _finite_R(args.R), samples=args.samples, seed=args.seed
        )
    # only angle-change develops a complex
    from .complexes import build_xp
    from .holonomy import RepParams, build_rho

    R = _development_options(args)
    x = _load_complex(args.complex) if args.complex is not None else build_xp(1, args.p)
    rho0 = build_rho(x, RepParams.zero(x, R=R, tau=0.0))
    rho1 = build_rho(x, RepParams.random(x, R=R, tau=1.0, seed=args.seed))
    return angle_change_check((rho0, rho1), p=args.p, samples=args.samples, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goodpants",
        description="Build, develop, and numerically certify pants complexes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct, grow, and develop a complex")
    b.add_argument("--genus", type=int, default=1)
    b.add_argument("--p", type=int, default=3)
    b.add_argument("--R", type=float, default=20.0)
    b.add_argument("--tau", type=float, default=0.0)
    b.add_argument("--L", type=int, default=32, help="growth threshold (0 = no surgery)")
    b.add_argument("--seed", type=_seed, default=None)
    b.add_argument("--out", default=None, help="path for the complex JSON")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the certification checks")
    v.add_argument("--complex", required=True)
    v.add_argument("--R", type=float, default=20.0)
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--tau", type=float, default=0.0)
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--seed", type=_seed, required=True)
    v.add_argument("--words", type=int, default=6)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("homology", help="first homology computations")
    mode = h.add_mutually_exclusive_group(required=True)
    mode.add_argument("--complex", default=None)
    mode.add_argument("--book", action="store_true")
    mode.add_argument("--free-product", nargs="+", default=None)
    h.add_argument("--g", type=int, default=None)
    h.add_argument("--p", type=int, default=None)
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_homology)

    l = sub.add_parser("lemma", help="sampling sweeps for the quantitative bounds")
    l.set_defaults(func=cmd_lemma)
    # one subcommand per sweep, each with only the options it reads
    sweeps = l.add_subparsers(dest="name", required=True)
    delta = sweeps.add_parser("delta", help="quasigeodesic stability")
    delta.add_argument("--delta", type=float, default=1e-4)
    hexagon = sweeps.add_parser("hexagon", help="hexagon identities and asymptotics")
    hexagon.add_argument("--R", default="20", help="comma list of R values")
    two_planes = sweeps.add_parser("two-planes", help="dihedral angle of two planes")
    two_planes.add_argument("--eps", type=float, default=0.01)
    two_planes.add_argument("--R", default="20")
    angle = sweeps.add_parser("angle-change", help="angle change between two developments")
    angle.add_argument("--p", type=int, default=3)
    angle.add_argument("--R", default="20")
    angle.add_argument("--complex", default=None)
    for sampled in (delta, two_planes, angle):
        sampled.add_argument("--samples", type=int, default=10000)
        sampled.add_argument("--seed", type=_seed, required=True)
    for sweep in (delta, hexagon, two_planes, angle):
        sweep.add_argument("--out", default=None, help="report path prefix (.json/.csv)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        thread_cap()
        return args.func(args)
    except SystemExit as exc:
        # only --help and --version exit, with 0: usage errors raise
        return exc.code
    except ArithmeticError as exc:
        # numbers out of double range or a degenerate construction
        # (DegenerateError), in whichever command
        return _emit_error("construction-failed", str(exc))
    except ValueError as exc:
        # ConfigError, or any other ValueError the input provokes
        return _emit_error("invalid-config", str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line front end.

Commands: ``build`` constructs and grows a pants complex and develops
it; ``verify`` runs the certification checks on a stored complex;
``homology`` computes first-homology groups; ``lemma`` runs the
sampling sweeps.  All reports are canonical JSON (sorted keys); sweep
commands also write CSV.  Exit codes: 0 success, 2 invalid
configuration or input, 3 construction failure, 4 failed check.

The ``GOODPANTS_THREADS`` environment variable is validated (an
integer >= 1) but nothing runs in parallel: every sampler runs its
samples sequentially from per-sample seeds, so reports never depend on
its value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .complexes import (
    DisconnectedResultError,
    NoEssentialPathError,
    NotOnShortestPathError,
    PantsComplex,
    build_xp,
    complexity,
    graph_of,
    grow_until,
    validate,
)
from .geom import DegenerateError
from .holonomy import (
    RepParams,
    build_rho,
    certify_qi,
    check_p_separated,
    development_residual,
    nontriviality_scan,
)
from .homology import book_of_i_bundles_h1, free_product_h1, h1_of_complex, mv_torsion_embedding, sigma
from .lemmalab import (
    angle_change_check,
    hexagon_asymptotics_check,
    quasigeodesic_stability_check,
    two_planes_angle_check,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_BUILD_FAILED = 3
EXIT_CHECK_FAILED = 4


class ConfigError(ValueError):
    """The command line or an input file is invalid."""


def thread_cap() -> int:
    """Parallelism cap from GOODPANTS_THREADS (>= 1, default 1)."""
    raw = os.environ.get("GOODPANTS_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GOODPANTS_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError("GOODPANTS_THREADS must be at least 1")
    return n


def _finite_R(value: float) -> float:
    """--R as given, refused when it is nan or infinite."""
    if not math.isfinite(value):
        raise ConfigError(f"--R must be finite, got {value!r}")
    return value


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(canonical_json({"error": {"code": code, "message": message}}) + "\n")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _load_complex(path: str) -> PantsComplex:
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


def _params_for(x: PantsComplex, args) -> RepParams:
    if getattr(args, "seed", None) is not None and args.tau != 0.0:
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
    if args.genus < 1:
        raise ConfigError("--genus must be at least 1")
    if args.p < 2:
        raise ConfigError("--p must be at least 2")
    if _finite_R(args.R) <= 0:
        raise ConfigError("--R must be positive")
    if not 0.0 <= args.tau <= 1.0:
        raise ConfigError("--tau must lie in [0, 1]")
    if args.L < 0:
        raise ConfigError("--L must be non-negative")
    try:
        x = build_xp(args.genus, args.p)
        if args.L > 0:
            x = grow_until(x, args.L)
        length, neg_count = complexity(graph_of(x))
        params = _params_for(x, args)
        rho = build_rho(x, params)
        residual = development_residual(rho)
    except (
        NoEssentialPathError,
        NotOnShortestPathError,
        DisconnectedResultError,
        ArithmeticError,
        ValueError,
    ) as exc:
        _emit_error("construction-failed", str(exc))
        return EXIT_BUILD_FAILED
    if args.out:
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
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.p < 2:
        raise ConfigError("--p must be at least 2")
    if _finite_R(args.R) <= 0:
        raise ConfigError("--R must be positive")
    if args.words < 1:
        raise ConfigError("--words must be at least 1")
    if args.samples < 1:
        raise ConfigError("need at least one sample")
    x = _load_complex(args.complex)
    try:
        params = _params_for(x, args)
        rho = build_rho(x, params)
    except (ValueError, ArithmeticError) as exc:
        _emit_error("construction-failed", str(exc))
        return EXIT_BUILD_FAILED
    checks = {}

    residual = development_residual(rho)
    checks["viability"] = {"max_residual": residual, "pass": residual < 1e-6}

    separated = check_p_separated(rho, args.p)
    checks["p_separated"] = {"p": args.p, "pass": separated}

    qi = certify_qi(R=args.R, p=args.p, samples=args.samples, seed=args.seed)
    checks["quasi_isometry"] = {
        "samples": qi.samples,
        "violations": qi.violations,
        "min_margin": qi.min_margin,
        "min_ratio": qi.min_ratio,
        "max_ratio": qi.max_ratio,
        "pass": qi.passed,
    }

    scan = nontriviality_scan(rho, max_length=args.words)
    checks["nontriviality"] = {
        "max_length": scan.max_length,
        "alphabet": scan.n_generators,
        "total_words": scan.total_words,
        "violations": [list(w) for w in scan.violations],
        "pass": scan.passed,
    }

    report = _report_header(args, "verify")
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks.values())
    _write(args.out, canonical_json(report))
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_homology(args) -> int:
    modes = [bool(args.complex), args.book, bool(args.free_product)]
    if sum(modes) != 1:
        raise ConfigError("choose exactly one of --complex, --book, --free-product")
    report = _report_header(args, "homology")
    if args.complex:
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
            if isinstance(obj, dict) and "pants" in obj:
                groups.append(h1_of_complex(_load_complex(path)))
            else:
                try:
                    from .homology import AbelianGroup

                    groups.append(
                        AbelianGroup(
                            rank=int(obj["rank"]),
                            torsion=tuple(int(t) for t in obj.get("torsion", ())),
                        )
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{path} is not a group or complex file") from exc
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
    try:
        report = _run_lemma(args)
    except (ArithmeticError, DegenerateError) as exc:
        # R out of double range, or a complex that cannot be developed
        _emit_error("construction-failed", str(exc))
        return EXIT_BUILD_FAILED
    _write(args.out and args.out + ".json", report.to_json())
    if args.out:
        _write(args.out + ".csv", report.to_csv())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_lemma(args):
    if args.name == "hexagon":
        return hexagon_asymptotics_check(_parse_R_list(args.R))
    if args.seed is None:
        raise ConfigError(f"lemma {args.name} requires --seed")
    if args.name == "delta":
        return quasigeodesic_stability_check(args.delta, samples=args.samples, seed=args.seed)
    if args.name == "two-planes":
        return two_planes_angle_check(
            args.eps, _finite_R(float(args.R)), samples=args.samples, seed=args.seed
        )
    x = _load_complex(args.complex) if args.complex else build_xp(1, args.p)
    R = _finite_R(float(args.R))
    rho0 = build_rho(x, RepParams.zero(x, R=R, tau=0.0))
    rho1 = build_rho(x, RepParams.random(x, R=R, tau=1.0, seed=args.seed))
    return angle_change_check((rho0, rho1), p=args.p, samples=args.samples, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--out", default=None, help="path for the complex JSON")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run the certification checks")
    v.add_argument("--complex", required=True)
    v.add_argument("--R", type=float, default=20.0)
    v.add_argument("--p", type=int, default=3)
    v.add_argument("--tau", type=float, default=0.0)
    v.add_argument("--samples", type=int, default=10000)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--words", type=int, default=6)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    h = sub.add_parser("homology", help="first homology computations")
    h.add_argument("--complex", default=None)
    h.add_argument("--book", action="store_true")
    h.add_argument("--g", type=int, default=1)
    h.add_argument("--p", type=int, default=3)
    h.add_argument("--free-product", nargs="+", default=None)
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_homology)

    l = sub.add_parser("lemma", help="sampling sweeps for the quantitative bounds")
    l.add_argument("name", choices=["delta", "hexagon", "two-planes", "angle-change"])
    l.add_argument("--delta", type=float, default=1e-4)
    l.add_argument("--R", default="20", help="R value, or comma list for hexagon")
    l.add_argument("--eps", type=float, default=0.01)
    l.add_argument("--p", type=int, default=3)
    l.add_argument("--complex", default=None)
    l.add_argument("--samples", type=int, default=10000)
    l.add_argument("--seed", type=int, default=None)
    l.add_argument("--out", default=None, help="report path prefix (.json/.csv)")
    l.set_defaults(func=cmd_lemma)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_BAD_CONFIG if code == 2 else code
    try:
        thread_cap()
        return args.func(args)
    except ConfigError as exc:
        _emit_error("invalid-config", str(exc))
        return EXIT_BAD_CONFIG
    except ValueError as exc:
        _emit_error("invalid-config", str(exc))
        return EXIT_BAD_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

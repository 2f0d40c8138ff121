"""The four benchmark workloads: their CLI commands, checks and traced passes.

Each workload is a list of ``goodpants`` commands, each run in a fresh
child process, plus an in-process pass that calls the same public
functions in the order the CLI handler calls them, with a span around
each call into a module.

Why these four:

* ``grow``: surgery grows a complex to 384 pants and ``build_rho``
  develops it, so ``complexes`` and ``holonomy`` development do the work.
* ``certify``: ``verify`` on a stored 96-pants complex; the ``holonomy``
  word scan, QI sampler and development do the work and the scan sets the
  peak memory, while ``complexes`` only loads.
* ``homology``: H1 of the stored complex (a dense Smith normal form) and
  of a book of I-bundles, so ``homology`` does almost all of the work.
* ``sweeps``: the four ``lemma`` sweeps, so ``lemmalab`` and the geometry
  under it dominate, and per-command start-up is a large share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import Tracer

GENUS, P, R = 1, 3, 20.0
BOOK_G, BOOK_P = 2, 4


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``name`` selects the reference values in reference.json."""

    name: str
    grow_L: int
    store_L: int
    words: int
    qi_samples: int
    delta_samples: int
    two_planes_samples: int
    angle_samples: int
    hexagon_R: str


# A run has about 25 s to measure in.  On a shared 2-core machine one
# command's time varies by up to 20% from one repetition to the next, so a
# repetition must be short enough for the median of many to hold still.
# At the first-chosen sizes (L=128 growth, L=32 store, 6-letter words,
# 10k QI samples) a repetition took 10-15 s and the median of 1-2 spread
# 11-22% between runs; these sizes keep each layer's share of the work.
FULL = Sizes(
    name="full",
    grow_L=64,
    store_L=16,
    words=5,
    qi_samples=2000,
    delta_samples=100000,
    two_planes_samples=10000,
    angle_samples=10000,
    hexagon_R="10,14,18,22,26,30,34",
)
SMOKE = Sizes(
    name="smoke",
    grow_L=8,
    store_L=8,
    words=3,
    qi_samples=200,
    delta_samples=300,
    two_planes_samples=200,
    angle_samples=200,
    hexagon_R="10,20",
)


@dataclass
class Ctx:
    seed: int
    sizes: Sizes
    workdir: Path
    reference: dict

    @property
    def stored(self) -> Path:
        return self.workdir / "stored.json"

    @property
    def grown(self) -> Path:
        return self.workdir / "grown.json"

    @property
    def ref(self) -> dict:
        return self.reference[self.sizes.name]


@dataclass(frozen=True)
class Command:
    key: str
    args: list[str]
    check: Callable[[int, dict, "Ctx"], list[str]]
    # sampled lemma sweeps may report a failed bound with exit 4; that is
    # the program's verdict, not a broken run
    verdict: bool = False


TRACEBACK = "Traceback (most recent call last)"


class OutputError(Exception):
    """A child's output is not what a correct program prints."""


def parse_report(rc: int, stdout: str, stderr: str) -> dict:
    """The JSON report a command printed, or OutputError."""
    if TRACEBACK in stderr:
        raise OutputError("traceback on stderr")
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise OutputError(f"no output (exit {rc})")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise OutputError(f"non-JSON output (exit {rc})") from None
    if not isinstance(report, dict):
        raise OutputError("report is not a JSON object")
    return report


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _group(obj: dict) -> dict:
    return {"rank": obj["rank"], "torsion": obj["torsion"]}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _check_complex(which: str, L: int, path: Path) -> Callable:
    def check(rc: int, report: dict, ctx: Ctx) -> list[str]:
        ref = ctx.ref[which]
        problems: list[str] = []
        _expect(problems, "exit code", rc, 0)
        _expect(problems, "pants", report.get("pants"), ref["pants"])
        _expect(problems, "circles", report.get("circles"), ref["circles"])
        if not report.get("complexity", [0])[0] > L:
            problems.append(f"complexity {report.get('complexity')} does not exceed L={L}")
        if not report.get("max_residual", 1.0) < 1e-6:
            problems.append(f"max_residual {report.get('max_residual')} is not below 1e-6")
        digest = _sha256(path) if path.exists() else None
        _expect(problems, "complex sha256", digest, ref["sha256"])
        return problems

    return check


def _check_verify(rc: int, report: dict, ctx: Ctx) -> list[str]:
    ref = ctx.ref["verify"]
    checks = report.get("checks", {})
    problems: list[str] = []
    _expect(problems, "exit code", rc, 0)
    _expect(problems, "pass", report.get("pass"), True)
    _expect(problems, "alphabet", checks.get("nontriviality", {}).get("alphabet"), ref["alphabet"])
    _expect(problems, "total_words", checks.get("nontriviality", {}).get("total_words"), ref["total_words"])
    _expect(problems, "QI samples", checks.get("quasi_isometry", {}).get("samples"), ctx.sizes.qi_samples)
    return problems


def _check_h1_complex(rc: int, report: dict, ctx: Ctx) -> list[str]:
    problems: list[str] = []
    _expect(problems, "exit code", rc, 0)
    _expect(problems, "H1", _group(report.get("h1", {"rank": None, "torsion": None})), ctx.ref["homology_complex"])
    return problems


def _check_h1_book(rc: int, report: dict, ctx: Ctx) -> list[str]:
    ref = ctx.ref["homology_book"]
    problems: list[str] = []
    _expect(problems, "exit code", rc, 0)
    _expect(problems, "H1", _group(report.get("h1", {"rank": None, "torsion": None})), ref["h1"])
    _expect(problems, "sigma", report.get("sigma"), ref["sigma"])
    surviving = report.get("surviving_torsion", {"rank": None, "torsion": None})
    _expect(problems, "surviving torsion", _group(surviving), ref["surviving_torsion"])
    return problems


def _check_sweep(rc: int, report: dict, ctx: Ctx) -> list[str]:
    passed = report.get("pass")
    if not isinstance(passed, bool):
        return [f"report carries no boolean pass: {passed!r}"]
    if rc != (0 if passed else 4):
        return [f"exit code {rc} disagrees with pass={passed}"]
    return []


def setup_commands(workload: str, ctx: Ctx) -> list[Command]:
    """Commands that make the workload's inputs, before the timed region."""
    if workload not in ("certify", "homology"):
        return []
    L = ctx.sizes.store_L
    args = ["build", "--genus", str(GENUS), "--p", str(P), "--R", f"{R:g}", "--L", str(L),
            "--seed", str(ctx.seed), "--out", str(ctx.stored)]
    return [Command("store", args, _check_complex("stored_complex", L, ctx.stored))]


def commands(workload: str, ctx: Ctx) -> list[Command]:
    """The timed command sequence of a workload."""
    s, seed = ctx.sizes, str(ctx.seed)
    if workload == "grow":
        args = ["build", "--genus", str(GENUS), "--p", str(P), "--R", f"{R:g}", "--L", str(s.grow_L),
                "--tau", "1", "--seed", seed, "--out", str(ctx.grown)]
        return [Command("build", args, _check_complex("grown_complex", s.grow_L, ctx.grown))]
    if workload == "certify":
        args = ["verify", "--complex", str(ctx.stored), "--R", f"{R:g}", "--p", str(P), "--seed", seed,
                "--words", str(s.words), "--samples", str(s.qi_samples)]
        return [Command("verify", args, _check_verify)]
    if workload == "homology":
        return [
            Command("homology_complex", ["homology", "--complex", str(ctx.stored)], _check_h1_complex),
            Command("homology_book", ["homology", "--book", "--g", str(BOOK_G), "--p", str(BOOK_P)],
                    _check_h1_book),
        ]
    if workload == "sweeps":
        return [
            Command("lemma_hexagon", ["lemma", "hexagon", "--R", s.hexagon_R], _check_sweep, verdict=True),
            Command("lemma_delta", ["lemma", "delta", "--delta", "1e-4", "--samples", str(s.delta_samples),
                                    "--seed", seed], _check_sweep, verdict=True),
            Command("lemma_two_planes", ["lemma", "two-planes", "--eps", "0.01", "--R", f"{R:g}",
                                         "--samples", str(s.two_planes_samples), "--seed", seed],
                    _check_sweep, verdict=True),
            Command("lemma_angle_change", ["lemma", "angle-change", "--p", str(P), "--R", f"{R:g}",
                                           "--samples", str(s.angle_samples), "--seed", seed],
                    _check_sweep, verdict=True),
        ]
    raise KeyError(workload)


# ---------------------------------------------------------------- traced pass


def _residual(x, rho, params) -> float:
    """The development residual, as ``cmd_build`` and ``cmd_verify`` compute it."""
    from goodpants.holonomy import measured_shear

    residual = 0.0
    for i, pants in enumerate(x.pants):
        for slot, c in enumerate(pants.slots):
            residual = max(residual, abs(complex(rho.halflength_at(i, slot)) - params.halflength(c)))
    for c in x.regular_circles():
        residual = max(residual, abs(measured_shear(rho, c) - params.shear_of(c)))
    return residual


def _load(tr: Tracer, path: Path):
    from goodpants.complexes import PantsComplex, validate

    with tr.span("complexes.load") as c:
        x = PantsComplex.from_json(path.read_text(encoding="utf-8"))
        bad = validate(x)
        c["pants"], c["circles"] = len(x.pants), len(x.circles)
    if bad:
        raise OutputError(f"stored complex fails validation: {bad[0]}")
    return x


def _develop(tr: Tracer, x, params):
    from goodpants.holonomy import build_rho

    with tr.span("holonomy.build_rho", pants=len(x.pants)):
        rho = build_rho(x, params)
    with tr.span("holonomy.residual"):
        _residual(x, rho, params)
    return rho


def trace_pass(workload: str, ctx: Ctx, tr: Tracer) -> None:
    """Run the workload in-process, mirroring the CLI handlers, under spans."""
    from goodpants import complexes, holonomy, homology, lemmalab

    s, seed = ctx.sizes, ctx.seed
    if workload == "grow":
        with tr.span("cli.build"):
            with tr.span("complexes.build_xp"):
                x = complexes.build_xp(GENUS, P)
            with tr.span("complexes.grow_until") as c:
                n0 = len(x.pants)
                x = complexes.grow_until(x, s.grow_L)
                c["surgeries"] = (len(x.pants) - n0) // 4
                c["pants"], c["circles"] = len(x.pants), len(x.circles)
            with tr.span("complexes.complexity"):
                complexes.complexity(complexes.graph_of(x))
            with tr.span("holonomy.params"):
                params = holonomy.RepParams.random(x, R=R, tau=1.0, seed=seed)
            _develop(tr, x, params)
            with tr.span("complexes.to_json"):
                text = x.to_json()
            (ctx.workdir / "traced.json").write_text(text + "\n", encoding="utf-8")
    elif workload == "certify":
        with tr.span("cli.verify"):
            x = _load(tr, ctx.stored)
            with tr.span("holonomy.params"):
                params = holonomy.RepParams.zero(x, R=R, tau=0.0)
            rho = _develop(tr, x, params)
            with tr.span("holonomy.p_separated"):
                holonomy.check_p_separated(rho, P)
            with tr.span("holonomy.qi", samples=s.qi_samples):
                holonomy.certify_qi(R=R, p=P, samples=s.qi_samples, seed=seed)
            with tr.span("holonomy.scan") as c:
                scan = holonomy.nontriviality_scan(rho, max_length=s.words)
                c["words"], c["flagged"] = scan.total_words, len(scan.violations)
    elif workload == "homology":
        with tr.span("cli.homology_complex"):
            x = _load(tr, ctx.stored)
            rows = 2 * len(x.pants) + len(x.circles)
            cols = sum(len(p.slots) for p in x.pants)
            with tr.span("homology.h1", rows=rows, cols=cols):
                homology.h1_of_complex(x)
        with tr.span("cli.homology_book"):
            with tr.span("homology.book"):
                homology.book_of_i_bundles_h1(BOOK_G, BOOK_P)
                homology.sigma(BOOK_P, BOOK_G)
                homology.mv_torsion_embedding(BOOK_P, BOOK_G)
    elif workload == "sweeps":
        with tr.span("cli.lemma_hexagon"):
            with tr.span("lemmalab.hexagon"):
                report = lemmalab.hexagon_asymptotics_check([float(v) for v in s.hexagon_R.split(",")])
            report.to_json()
        with tr.span("cli.lemma_delta"):
            with tr.span("lemmalab.delta") as c:
                report = lemmalab.quasigeodesic_stability_check(1e-4, samples=s.delta_samples, seed=seed)
                c["samples"], c["rejected"] = report.samples, report.rejected
            report.to_json()
        with tr.span("cli.lemma_two_planes"):
            with tr.span("lemmalab.two_planes"):
                report = lemmalab.two_planes_angle_check(0.01, R, samples=s.two_planes_samples, seed=seed)
            report.to_json()
        with tr.span("cli.lemma_angle_change"):
            with tr.span("complexes.build_xp"):
                x = complexes.build_xp(1, P)
            with tr.span("holonomy.params"):
                p0 = holonomy.RepParams.zero(x, R=R, tau=0.0)
                p1 = holonomy.RepParams.random(x, R=R, tau=1.0, seed=seed)
            with tr.span("holonomy.build_rho", pants=len(x.pants)):
                rho0 = holonomy.build_rho(x, p0)
            with tr.span("holonomy.build_rho", pants=len(x.pants)):
                rho1 = holonomy.build_rho(x, p1)
            with tr.span("lemmalab.angle_change") as c:
                report = lemmalab.angle_change_check((rho0, rho1), p=P, samples=s.angle_samples, seed=seed)
                c["samples"], c["rejected"] = report.samples, report.rejected
            report.to_json()
    else:
        raise KeyError(workload)


WORKLOADS = ("grow", "certify", "homology", "sweeps")

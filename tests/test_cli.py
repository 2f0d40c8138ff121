import contextlib
import copy
import functools
import hashlib
import importlib
import io
import json
import os
import pkgutil
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goodpants
import goodpants.cli as cli
from goodpants import holonomy, walks
from goodpants.geom import DegenerateError, _screw
from goodpants.cli import main
from goodpants.complexes import Circle, Pants, PantsComplex, build_xp, grow_until

from oracles import root_cover, two_chains


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def small_complex(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, err = run(
        capsys, ["build", "--genus", "1", "--p", "3", "--L", "0", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBuild:
    def test_summary_fields(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys,
            ["build", "--genus", "1", "--p", "3", "--L", "5", "--out", str(path)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "build"
        assert doc["singular_circles"] == [0, 1]
        assert doc["complexity"][0] > 5
        assert doc["max_residual"] < 1e-9
        assert path.exists()
        stored = json.loads(path.read_text())
        assert len(stored["pants"]) == doc["pants"]

    def test_canonical_output(self, capsys):
        code, out, _ = run(capsys, ["build", "--L", "0"])
        assert code == 0
        doc = json.loads(out)
        assert out.strip() == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--genus", "0"],
            ["build", "--p", "1"],
            ["build", "--R", "-3"],
            ["build", "--tau", "1.5"],
            ["build", "--L", "-1"],
            # a perturbation with no seed to draw it from
            ["build", "--L", "0", "--tau", "1"],
        ],
    )
    def test_bad_config(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-config"

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, ["build", "--nope"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, residual, stable_letters",
        [
            (["--L", "16", "--tau", "1", "--seed", "5"], 4.973799150320701e-14, 48),
            (
                ["--genus", "2", "--p", "5", "--L", "8", "--tau", "1", "--seed", "4"],
                5.684341886080802e-14,
                22,
            ),
        ],
    )
    def test_pinned_development(self, capsys, argv, residual, stable_letters):
        code, out, err = run(capsys, ["build", *argv])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["max_residual"] == residual
        assert doc["stable_letters"] == stable_letters

    @pytest.mark.parametrize("L", ["0", "32"])
    @pytest.mark.parametrize("R", ["38", "40", "60"])
    def test_develops_at_large_R(self, capsys, R, L):
        code, out, err = run(capsys, ["build", "--L", L, "--R", R, "--tau", "1", "--seed", "2"])
        assert code == 0, err
        assert json.loads(out)["max_residual"] < 1e-6

    @pytest.mark.parametrize(
        "argv",
        [["--R", "0.5"], ["--R", "1"], ["--R", "2"], ["--R", "2.05", "--tau", "1", "--seed", "3"]],
    )
    def test_develops_at_small_R(self, capsys, argv):
        # the shear of about 1 lies past the half-length R/2; it was
        # compared unreduced, and these read residuals of 1.0 and 0.985
        code, out, err = run(capsys, ["build", "--L", "0", *argv])
        assert code == 0 and err == ""
        assert json.loads(out)["max_residual"] < 1e-12

    @pytest.mark.parametrize("R", ["100", "200"])
    def test_past_double_precision(self, capsys, R):
        # the seams are 3e-11 (R=100) and 4e-22 (R=200) long; the build
        # either develops or says why it cannot
        code, out, err = run(capsys, ["build", "--L", "0", "--R", R, "--tau", "1", "--seed", "2"])
        if code == 0:
            assert json.loads(out)["max_residual"] < 1e-6
        else:
            assert code == 3
            assert json.loads(err)["error"]["code"] == "construction-failed"

    @pytest.mark.parametrize("R, code", [("84", 0), ("90", 4)])
    def test_not_viable_development_fails(self, capsys, R, code):
        # residuals 2.3e-7 at R = 84 and 1.5e-6 at R = 90, against 1e-6
        code_, out, err = run(capsys, ["build", "--L", "0", "--R", R, "--tau", "1", "--seed", "2"])
        assert code_ == code
        residual = json.loads(out)["max_residual"]
        assert (residual < cli.VIABLE_RESIDUAL) == (code == 0)
        if code == 0:
            assert err == ""
        else:
            assert json.loads(err)["error"]["code"] == "not-viable"

    def test_construction_failure(self, capsys, monkeypatch):
        def boom(x, params):
            raise DegenerateError("no viable development")

        monkeypatch.setattr(holonomy, "build_rho", boom)
        code, out, err = run(capsys, ["build", "--L", "0"])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "construction-failed"

    def test_stalled_growth_fails(self, capsys, monkeypatch):
        # a surgery that changes nothing leaves (l, -n) where it was
        monkeypatch.setattr(walks._Growth, "surger", lambda self, e: None)
        code, out, err = run(capsys, ["build", "--L", "16"])
        assert code == 3
        assert out == ""
        kind, text = error_of(err)
        assert kind == "construction-failed"
        assert "did not rise" in text


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedReports:
    """Digests of reports that a rewrite of geom, pants or holonomy keeps."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ["build", "--L", "64", "--tau", "1", "--seed", "101"],
                "98d79207a67a41a51f57a45469d7ba7d75fb527e00d4ff4a12063fb8ce1b698a",
                id="build-L64-tau1",
            ),
            pytest.param(
                ["lemma", "hexagon", "--R", "10,14,18,22,26,30,34"],
                "ea76d0d1eb001c19933ca7034cd37fec4525bb8861aa90df8e8fdda14629b8ff",
                id="hexagon-benchmark",
            ),
            pytest.param(
                ["lemma", "hexagon", "--R", "2,5,10,40,60,100,170"],
                "27e34cbaaa5cd15961bfae7106ce5b48ce92db357ff3fd0de6d50aaf18ccbd53",
                id="hexagon-wide",
            ),
            pytest.param(
                ["homology", "--book", "--g", "2", "--p", "4"],
                "3fecc08477b995132c12f91d18c955fa27d379b2f30feb5552e2c0781a046697",
                id="book-g2-p4",
            ),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, digest):
        code, out, err = run(capsys, argv)
        # the wide hexagon sweep fails its d2-identity rows at R = 100 and 170
        assert code == (4 if argv[-1].startswith("2,") else 0) and err == ""
        assert sha256(out) == digest

    def test_pinned_build_verify(self, tmp_path, capsys, monkeypatch):
        # a relative complex path, so the verify reports' configs are fixed
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["build", "--L", "16", "--seed", "3", "--out", "x"])
        assert code == 0 and err == ""
        assert sha256(out) == "891cc10d70e4859bbcee9c4c3d4910dc82f9a7e4fee89f99c2fdfd0dcd792184"
        assert (
            sha256((tmp_path / "x").read_text())
            == "312a578a28c91f6b6adca7512ee16817bb1b36f30e790d3dd949d0f82fd81802"
        )
        verify = ["verify", "--complex", "x", "--words", "3", "--samples", "300", "--seed", "1"]
        for extra, digest in [
            ([], "2bea608a808d6d7397dd937b02108e0e69b680a38f4e9bbe3fbec20d647cfbea"),
            (
                ["--R", "40", "--tau", "1"],
                "d840d7940d36b7ee5f99e011046e884505907e94a46872fe91f5ae1cd1b17559",
            ),
        ]:
            code, out, err = run(capsys, verify + extra)
            assert code == 0 and err == ""
            assert sha256(out) == digest


class TestVerify:
    def test_passes(self, small_complex, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys,
            [
                "verify",
                "--complex",
                str(small_complex),
                "--seed",
                "3",
                "--samples",
                "200",
                "--words",
                "3",
                "--out",
                str(report_path),
            ],
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["pass"] is True
        for name in ("viability", "p_separated", "quasi_isometry", "nontriviality"):
            assert doc["checks"][name]["pass"] is True

    def test_missing_file(self, tmp_path, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(tmp_path / "nope.json"), "--seed", "1"],
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-config"

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, ["verify", "--complex", str(bad), "--seed", "1"])
        assert code == 2

    def test_seed_required(self, small_complex, capsys):
        code, out, err = run(capsys, ["verify", "--complex", str(small_complex)])
        assert code == 2


    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_needs_a_sample(self, small_complex, capsys, samples):
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--seed", "3",
             "--samples", samples, "--words", "2"],
        )
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": {"code": "invalid-config", "message": "need at least one sample"}
        }

    def test_passes_at_R40_perturbed(self, small_complex, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--R", "40", "--tau", "1",
             "--seed", "3", "--samples", "300", "--words", "3"],
        )
        assert code == 0, err
        assert all(check["pass"] for check in json.loads(out)["checks"].values())

    def test_nan_chord_fails_the_qi_check(self, small_complex, capsys):
        # at R = 76 the one sampled path's products overflow to inf - inf:
        # its chord is nan, which compares false to both bounds
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--R", "76", "--seed", "0",
             "--samples", "1", "--words", "1"],
        )
        assert code == 4, err
        qi = json.loads(out)["checks"]["quasi_isometry"]
        assert qi["pass"] is False
        assert qi["violations"] == 1

    def test_failed_check_exit_code(self, small_complex, capsys, monkeypatch):
        monkeypatch.setattr(holonomy, "check_p_separated", lambda rho, p: False)
        code, out, err = run(
            capsys,
            [
                "verify",
                "--complex",
                str(small_complex),
                "--seed",
                "3",
                "--samples",
                "50",
                "--words",
                "2",
            ],
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["pass"] is False
        assert doc["checks"]["p_separated"]["pass"] is False


@functools.cache
def root_covers():
    """3-fold covers along singular roots, which meet only across the roots."""
    x3 = build_xp(1, 3)
    x16 = grow_until(build_xp(1, 3), 16)
    return {
        "X3": root_cover(x3, 3, [0]),
        "L16": root_cover(x16, 3, [x16.singular_circles()[0]]),
        "X3-both": root_cover(x3, 3, [0, 1]),
    }


class TestRootCovers:
    @pytest.mark.parametrize(
        "name, h1",
        [("X3", "Z^13 + Z/3 + Z/3"), ("L16", "Z^289 + Z/3 + Z/3"), ("X3-both", "Z^15")],
    )
    def test_homology(self, tmp_path, capsys, name, h1):
        path = tmp_path / "cover.json"
        path.write_text(root_covers()[name].to_json())
        code, out, err = run(capsys, ["homology", "--complex", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["h1"]["describe"] == h1

    @pytest.mark.parametrize("tau", ["0", "1"])
    @pytest.mark.parametrize("name", ["X3", "L16", "X3-both"])
    def test_verify_passes(self, tmp_path, capsys, name, tau):
        # a lifted root has d = 1 and three attachments, so its feet are
        # 2*pi/3 apart: p-separated at p = 3, with equality
        path = tmp_path / "cover.json"
        path.write_text(root_covers()[name].to_json())
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(path), "--seed", "0", "--words", "3",
             "--samples", "300", "--tau", tau],
        )
        assert (code, err) == (0, "")
        assert all(check["pass"] for check in json.loads(out)["checks"].values())

    def test_rotated_foot_fails_p_separation(self, tmp_path, capsys, monkeypatch):
        # turning one foot on the lifted root by 0.3 rad brings two feet
        # closer than 2*pi/3
        build_rho = holonomy.build_rho

        def rotated(x, params):
            rho = build_rho(x, params)
            frames = list(rho.measure_frames[0])
            frames[1] = _screw(0.3j) * frames[1]
            return rho._replace(measure_frames={**rho.measure_frames, 0: tuple(frames)})

        monkeypatch.setattr(holonomy, "build_rho", rotated)
        path = tmp_path / "cover.json"
        path.write_text(root_covers()["X3"].to_json())
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(path), "--seed", "0", "--words", "3", "--samples", "300"],
        )
        assert (code, err) == (4, "")
        checks = json.loads(out)["checks"]
        assert [name for name, check in checks.items() if not check["pass"]] == ["p_separated"]


class TestHomology:
    def test_book(self, capsys):
        code, out, _ = run(capsys, ["homology", "--book", "--g", "1", "--p", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["h1"] == {"rank": 3, "torsion": [5], "describe": "Z^3 + Z/5"}
        assert doc["sigma"] == 5
        assert doc["surviving_torsion"]["torsion"] == [5]

    def test_large_book(self, capsys):
        # --g is not bounded: H1's one relation names only c1 and c2, so
        # cokernel never touches the 2g page classes, and sigma leaves them
        # out of its lattice, where each would only quotient out itself
        t0 = time.perf_counter()
        code, out, _ = run(capsys, ["homology", "--book", "--g", "100000000", "--p", "4"])
        elapsed = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma"] == 2
        assert doc["h1"]["describe"] == "Z^200000001 + Z/4"
        assert doc["surviving_torsion"]["describe"] == "Z/2"
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    def test_complex(self, small_complex, capsys):
        code, out, _ = run(capsys, ["homology", "--complex", str(small_complex)])
        assert code == 0
        assert json.loads(out)["h1"]["torsion"] == [3]

    def test_free_product(self, tmp_path, small_complex, capsys):
        grp = tmp_path / "g.json"
        grp.write_text(json.dumps({"rank": 1, "torsion": [2]}))
        code, out, _ = run(
            capsys,
            ["homology", "--free-product", str(grp), str(small_complex)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["h1"]["torsion"] == [6]

    def test_book_defaults_stay_in_the_config(self, capsys):
        code, out, err = run(capsys, ["homology", "--book"])
        assert code == 0 and err == ""
        assert json.loads(out)["config"] == {"book": True, "command": "homology", "g": 1, "p": 3}

    @pytest.mark.parametrize(
        "mode", [["--complex", "{complex}"], ["--free-product", "{complex}"]],
        ids=["complex", "free-product"],
    )
    @pytest.mark.parametrize("option", [["--g", "7"], ["--p", "9"], ["--g", "7", "--p", "9"]])
    def test_book_options_refused_without_book(self, small_complex, capsys, mode, option):
        argv = ["homology", *(a.format(complex=small_complex) for a in mode)]
        code, out, err = run(capsys, argv)
        assert code == 0 and err == ""
        # --g and --p are not in the config: only --book reads them
        assert set(json.loads(out)["config"]) == {"book", "command", mode[0][2:].replace("-", "_")}
        code, out, err = run(capsys, argv + option)
        assert code == 2 and out == ""
        assert error_of(err) == ("invalid-config", "--g and --p are read only with --book")

    def test_exactly_one_mode(self, small_complex, capsys):
        code, out, err = run(
            capsys, ["homology", "--book", "--complex", str(small_complex)]
        )
        assert code == 2
        code, out, err = run(capsys, ["homology"])
        assert code == 2

    def test_disconnected_complex(self, tmp_path, capsys):
        from goodpants.complexes import Pants, PantsComplex, build_xp

        one = build_xp(1, 3)
        shift = len(one.circles)
        other = tuple(
            Pants(slots=tuple(c + shift for c in p.slots), orientations=p.orientations)
            for p in one.pants
        )
        path = tmp_path / "two.json"
        path.write_text(
            PantsComplex(pants=one.pants + other, circles=one.circles * 2).to_json()
        )
        code, out, err = run(capsys, ["homology", "--complex", str(path)])
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-config"
        assert "not connected" in error["message"]

    @pytest.mark.parametrize(
        "keys, value",
        [
            pytest.param(("circles", 0, "d"), "3", id="string-d"),
            pytest.param(("circles", 2, "d"), True, id="bool-d"),
            pytest.param(("circles", 0, "k"), 1.0, id="float-k"),
            pytest.param(("pants", 0, "slots", 1), 2.0, id="float-slot"),
            pytest.param(("orientations", 0, 1), "1", id="string-orientation"),
            pytest.param(("orientations", -1), None, id="short-orientations"),
            pytest.param(("orientations", 0, -1), None, id="short-orientation-record"),
            pytest.param(("circles", -1, "id"), 99, id="circle-id-gap"),
            pytest.param(("circles", -1, "id"), 0, id="duplicate-circle-id"),
            pytest.param((), [1, 2], id="not-an-object"),
            pytest.param(
                (),
                {"version": 1, "pants": [], "circles": [], "orientations": []},
                id="no-pants",
            ),
            pytest.param(("circles", 0, "k"), 0, id="k-zero"),
            pytest.param(("circles", 0, "k"), 3, id="k-not-coprime"),
            pytest.param(("circles", 0, "k"), -6, id="negative-k-not-coprime"),
        ],
    )
    @pytest.mark.parametrize("command", ["homology", "verify"])
    def test_badly_typed_complex_file(self, small_complex, capsys, command, keys, value):
        # set the item at keys to value, or delete it when value is None
        doc = json.loads(small_complex.read_text())
        if keys:
            *parents, last = keys
            target = doc
            for k in parents:
                target = target[k]
            if value is None:
                del target[last]
            else:
                target[last] = value
        else:
            doc = value
        small_complex.write_text(json.dumps(doc))
        argv = [command, "--complex", str(small_complex)]
        code, out, err = run(capsys, argv + (["--seed", "1"] if command == "verify" else []))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["code"] == "invalid-config"

    def test_bad_group_file(self, tmp_path, capsys):
        grp = tmp_path / "g.json"
        grp.write_text(json.dumps({"torsion": "x"}))
        code, out, err = run(capsys, ["homology", "--free-product", str(grp)])
        assert code == 2

    @pytest.mark.parametrize(
        "group, field",
        [
            ({"rank": -3}, "rank must be non-negative, got -3"),
            ({"rank": 1.7}, "rank must be an integer, got 1.7"),
            ({"rank": True}, "rank must be an integer, got True"),
            ({"rank": "3"}, "rank must be an integer, got '3'"),
            ({"rank": 0, "torsion": [2.9]}, "torsion order must be an integer, got 2.9"),
        ],
    )
    def test_group_file_is_read_not_coerced(self, tmp_path, capsys, group, field):
        grp = tmp_path / "g.json"
        grp.write_text(json.dumps(group))
        code, out, err = run(capsys, ["homology", "--free-product", str(grp)])
        assert (code, out) == (2, "")
        assert error_of(err) == ("invalid-config", f"{grp} is not a group or complex file: {field}")

    @pytest.mark.parametrize(
        "orders, torsion", [([2, 3], [6]), ([4, 6], [2, 12]), ([12, 2, 9], [6, 36])]
    )
    def test_group_file_torsion_in_any_order(self, tmp_path, capsys, orders, torsion):
        grp = tmp_path / "g.json"
        grp.write_text(json.dumps({"rank": 1, "torsion": orders}))
        code, out, err = run(capsys, ["homology", "--free-product", str(grp)])
        assert (code, err) == (0, "")
        assert json.loads(out)["h1"]["torsion"] == torsion

    def test_group_file_torsion_matches_sympy(self, tmp_path, capsys):
        from sympy import diag
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(15)
        grp = tmp_path / "g.json"
        for _ in range(60):
            orders = [rng.randrange(2, 61) for _ in range(rng.randrange(6))]
            grp.write_text(json.dumps({"rank": 0, "torsion": orders}))
            code, out, err = run(capsys, ["homology", "--free-product", str(grp)])
            assert (code, err) == (0, "")
            d = smith_normal_form(diag(*orders)) if orders else None
            want = [abs(d[i, i]) for i in range(len(orders)) if abs(d[i, i]) > 1]
            assert json.loads(out)["h1"]["torsion"] == sorted(want), orders


class TestLemma:
    def test_hexagon_files(self, tmp_path, capsys):
        prefix = tmp_path / "hex"
        code, out, _ = run(
            capsys, ["lemma", "hexagon", "--R", "10,20", "--out", str(prefix)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "hex.json").read_text())
        assert doc["pass"] is True
        csv_text = (tmp_path / "hex.csv").read_text()
        assert csv_text.splitlines()[0] == "R,check,measured,bound,pass"

    def test_delta_stdout(self, capsys):
        code, out, _ = run(
            capsys, ["lemma", "delta", "--delta", "1e-3", "--samples", "100", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_two_planes(self, capsys):
        code, out, _ = run(
            capsys,
            ["lemma", "two-planes", "--eps", "0.01", "--R", "20", "--samples", "50", "--seed", "1"],
        )
        assert code == 0

    def test_angle_change(self, capsys):
        code, out, _ = run(
            capsys,
            ["lemma", "angle-change", "--p", "3", "--R", "20", "--samples", "40", "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize(
        "shift, failing",
        [(0.3j, ["phi-orthogonality"]), (0.3, ["theta-shift"])],
        ids=["rotated", "slid"],
    )
    def test_planted_frame_fails_the_sweep(self, capsys, monkeypatch, shift, failing):
        # the right side's frame of the deformed development, turned about
        # the measured axis by 0.3 rad or slid along it by 0.3
        build_rho = holonomy.build_rho

        def planted(x, params):
            rho = build_rho(x, params)
            if params.tau == 0.0:
                return rho
            c = x.regular_circles()[0]
            frames = list(rho.measure_frames[c])
            frames[1] = _screw(shift) * frames[1]
            return rho._replace(measure_frames={**rho.measure_frames, c: tuple(frames)})

        monkeypatch.setattr(holonomy, "build_rho", planted)
        code, out, err = run(capsys, ["lemma", "angle-change", "--samples", "2000", "--seed", "0"])
        assert (code, err) == (4, "")
        rows = json.loads(out)["rows"]
        assert [row["params"]["check"] for row in rows if not row["pass"]] == failing

    @pytest.mark.parametrize(
        "argv, seed, digest",
        [
            pytest.param(
                ["delta", "--delta", "1e-4", "--samples", "100000"], "0",
                "6ee312d32ed7031889b5976d59c03fe2e51a3bbb497de38addc10f408dfdd9ec", id="delta-0",
            ),
            pytest.param(
                ["delta", "--delta", "1e-4", "--samples", "100000"], "1",
                "ef1a159324f225b94ab0f0731997428997b7f4709d004a7160baeab2f9206169", id="delta-1",
            ),
            pytest.param(
                ["two-planes", "--eps", "0.01", "--R", "20", "--samples", "10000"], "0",
                "bcdd87c356f75b409fe08d8d046298484976b7be0d204cfaf43aae03c4715085", id="two-planes-0",
            ),
            pytest.param(
                ["two-planes", "--eps", "0.01", "--R", "20", "--samples", "10000"], "1",
                "1c56b6883dd618252d224c20c3b3b8bef8f7246e4f43c3b5d18f287c49b1b409", id="two-planes-1",
            ),
            pytest.param(
                ["angle-change", "--p", "3", "--R", "20", "--samples", "10000"], "0",
                "940e3f32c16f116a2fd196e5ec3f8873bd7098ccafa4fd1de4dd069e5c58d1c2", id="angle-change-0",
            ),
            pytest.param(
                ["angle-change", "--p", "3", "--R", "20", "--samples", "10000"], "1",
                "9cd8ec3464da9ed7ec3dfebd5a6129ccaca242c665103ac99bf0e7794d609a43", id="angle-change-1",
            ),
            pytest.param(
                ["angle-change", "--p", "5", "--R", "30", "--samples", "10000"], "0",
                "e7a4c092f8e272f3acaa423e7e1e3f09485682561b81922caa2c353b7d3b0594", id="angle-change-p5-R30-0",
            ),
            pytest.param(
                ["angle-change", "--p", "5", "--R", "30", "--samples", "10000"], "1",
                "86948c5bfd302ecbd0b839b8c1be83a5a8abea762dc264484c27362f65c31702", id="angle-change-p5-R30-1",
            ),
            pytest.param(
                ["angle-change", "--complex", "{complex}", "--samples", "10000"], "1",
                "fad515a154d58e1da6e98a97e5491f9a4957bd7857cf8f332683557c78c7b7ca", id="angle-change-L16-1",
            ),
            pytest.param(
                ["angle-change", "--complex", "{complex}", "--samples", "5000"], "1",
                "4967fbd79ed764183eeef6fbcb972b8d0d62152e8e90e496b0e882856f8fe157", id="angle-change-L16-5000-1",
            ),
            pytest.param(
                ["two-planes", "--eps", "0.05", "--R", "80", "--samples", "10000"], "0",
                "f7334602a5d2c0799dd92ef2479734dcfaef97eef9c175378c8d40f6edda1ef1", id="two-planes-R80-0",
            ),
            pytest.param(
                ["two-planes", "--eps", "0.05", "--R", "80", "--samples", "10000"], "1",
                "77d151dfc3682bdf55fed2406f33f94cebb8febfe2aa42674ca2b78d9e55e3af", id="two-planes-R80-1",
            ),
        ],
    )
    def test_pinned_sweep_bytes(self, tmp_path, capsys, argv, seed, digest):
        # digests of the reports of the per-sample implementation (and,
        # for the later cases, of the sweeps measured through a general
        # frame): the sliced, axis-frame sweeps must print the same bytes
        if "{complex}" in argv:
            path = tmp_path / "x.json"
            code, _, _ = run(capsys, ["build", "--L", "16", "--seed", "3", "--out", str(path)])
            assert code == 0
            argv = [str(path) if a == "{complex}" else a for a in argv]
        code, out, err = run(capsys, ["lemma", *argv, "--seed", seed])
        assert code in (0, 4) and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, R, samples, digest",
        [
            pytest.param(
                "3", "20", "300", "7a091a92f1f41093eb002330bfacc3f9696a32309d5b62f019f9ff20989add17",
                id="p3-R20-300",
            ),
            pytest.param(
                "3", "20", "2000", "73b84a724fa3e7888caa15d1a17490147f7bafed5dd4dd1affa2def2188dde7d",
                id="p3-R20-2000",
            ),
            pytest.param(
                "4", "30", "300", "3497fcf401aed9ea6a950bfd0ecebbae19f2aa568d870ac1ff57b1615cc5ff25",
                id="p4-R30-300",
            ),
            pytest.param(
                "4", "30", "2000", "5ccd4e9f0abc7deb54a37334bd5ed262728fd92a98cda72c126f54fcac021d31",
                id="p4-R30-2000",
            ),
            pytest.param(
                "5", "24", "300", "84e77c6b2695eb9ce384edcd9c0a8077d8d0ed3c05a473df3d07550a197eabae",
                id="p5-R24-300",
            ),
            pytest.param(
                "5", "24", "2000", "3f4cbb401099a626f3eb208946ea8ff4cafcbc61c9335a48e3031a9a859cf2b7",
                id="p5-R24-2000",
            ),
        ],
    )
    def test_pinned_angle_change_seeds(self, capsys, p, R, samples, digest):
        # digest of the reports of seeds 0-23, one after another, with the
        # circle's own cuff letters built as exact screws; every seed passes
        outs = []
        for seed in range(24):
            code, out, err = run(
                capsys,
                ["lemma", "angle-change", "--p", p, "--R", R, "--samples", samples,
                 "--seed", str(seed)],
            )
            assert code == 0 and err == ""
            outs.append(out)
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "R, p, seed, samples, digest, message",
        [
            pytest.param(
                "130", "3", "0", 77,
                "84f6e7c4bf1d5b7397e6aa3722f76c1bc42357f9cf6c73c3bde80fa08d983588",
                "a word image's distance from the base point overflows", id="overflow",
            ),
            # named for the singular word that rounded cuff letters made;
            # exact ones leave none, and the sweep passes
            pytest.param(
                "90", "2", "0", 1134,
                "6843ca94cf1ba17d3db192ad20932bee0d5b8e4d51ff54a5409fffaca9f142fd",
                None, id="degenerate",
            ),
            # named likewise; it now fails on overflow
            pytest.param(
                "130", "3", "1", 43,
                "ebd3ec2ff80a2fe6e5730bcbfce18e7f5aac1732a136c93a35259eebcddcfbe7",
                "a word image's distance from the base point overflows", id="degenerate-early",
            ),
        ],
    )
    def test_angle_change_fails_at_the_attempt_that_fails(
        self, capsys, R, p, seed, samples, digest, message
    ):
        # the sweep that tested one attempt at a time reported `samples`
        # samples, and failed on the attempt that would give one more;
        # the attempts after the last one a report needs are never tested
        argv = ["lemma", "angle-change", "--R", R, "--p", p, "--seed", seed, "--samples"]
        code, out, err = run(capsys, argv + [str(samples)])
        assert code in (0, 4) and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, out, err = run(capsys, argv + [str(samples + 1)])
        if message is None:
            assert code == 0 and err == ""
            return
        assert code == 3 and out == ""
        assert error_of(err) == (
            "construction-failed", f"R = {R}.0 is too large for double precision: {message}"
        )

    def test_singular_word_fails_the_construction(self, capsys, monkeypatch):
        # a word whose holonomy rounds to a singular matrix divides by zero
        # when it moves the base point
        from goodpants import lemmalab

        word_images = lemmalab._word_images

        def singular(word_mats, word):
            if word == (1, 2):
                raise ZeroDivisionError("complex division by zero")
            return word_images(word_mats, word)

        monkeypatch.setattr(lemmalab, "_word_images", singular)
        code, out, err = run(capsys, ["lemma", "angle-change", "--samples", "2000", "--seed", "0"])
        assert code == 3 and out == ""
        assert error_of(err) == (
            "construction-failed",
            "R = 20.0 is too large for double precision: the holonomy of word [1, 2]"
            " rounds to a singular matrix",
        )

    @pytest.mark.parametrize(
        "delta, seed, digest",
        [
            ("1e-2", "0", "77468a557b549230c7dc47b06367be924d054133d3b0178a4af1b6e5964c64a4"),
            ("1e-2", "1", "64ec87e8e3bd239e0713ff0ca74da744d44f9f12976f065281ad5f571de4628a"),
            ("1e-2", "7", "14fb43ad818be3d70c84674ba431824515500059d99bf41e892ed31531cfbcbb"),
            ("1e-4", "0", "4695d195a8f942cbcad88f9f83d2f4c17bdcf80eb99c03fccfddb70bafd3a61a"),
            ("1e-4", "1", "4f376e49f74a51a74cd620259b70697cd7bc73c82eebdcbbd22325e8deda20f9"),
            ("1e-4", "7", "6e55301ac3dba2a1a1d3fafd79e5deff3d889b89efcb074c9c0b51dea4586b58"),
            ("1e-6", "0", "f16d25820e33829fc201a0db4af64f2bcd0c469c71c5611f44dc4338003e6225"),
            ("1e-6", "1", "dec4a8a8b31a188598fcdcd02fa689fd5f34510a140d77e1e6710e5935f1f871"),
            ("1e-6", "7", "340587d0f6f2b4701686355aee46af8da84a40074a2f501b1f9cb1355f789366"),
            ("1e-10", "0", "28e5b4673dafb7f577c437a059f717da9bbaa441df58771f18c7f242a743a81b"),
            ("1e-10", "1", "1a9cbc3f0f19ddd35f09eb25f6ce7f92804c997fff672e69440be195930ce34a"),
            ("1e-10", "7", "9817758c741c0a79f96dceee5ff186480e920b118125ba0d70a4f2a5feab2e87"),
        ],
    )
    def test_pinned_delta_bytes(self, capsys, delta, seed, digest):
        # digests of the reports of the sweep that checked every path on
        # its full net of vertex pairs; the log-height bound must print the
        # same bytes, and at 1e-10 the full net still decides each path
        code, out, err = run(
            capsys, ["lemma", "delta", "--delta", delta, "--samples", "3000", "--seed", seed]
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["delta", "two-planes", "angle-change"])
    def test_seed_required(self, capsys, name):
        code, out, err = run(capsys, ["lemma", name, "--samples", "10"])
        assert code == 2 and out == ""
        assert error_of(err) == (
            "invalid-config",
            f"goodpants lemma {name}: the following arguments are required: --seed",
        )

    def test_bad_name(self, capsys):
        code, out, err = run(capsys, ["lemma", "nope"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["hexagon", "--R", "1e6"],
            ["hexagon", "--R", "800"],
            ["two-planes", "--eps", "0.01", "--R", "1e6", "--seed", "1", "--samples", "10"],
            ["angle-change", "--R", "1e6", "--seed", "1", "--samples", "10"],
            ["angle-change", "--R", "200", "--seed", "1", "--samples", "10"],
        ],
    )
    def test_out_of_range_R_fails_construction(self, capsys, argv):
        code, out, err = run(capsys, ["lemma", *argv])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "construction-failed"

    def test_two_planes_out_of_range_names_R(self, capsys):
        # legs d near R make e^(2d) overflow from about R = 355
        code, out, err = run(
            capsys, ["lemma", "two-planes", "--R", "400", "--samples", "10", "--seed", "0"]
        )
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "construction-failed"
        assert "R = 400.0" in error["message"]

    @pytest.mark.parametrize("R", ["180", "400", "720"])
    def test_hexagon_out_of_range_names_R(self, capsys, R):
        # the chord's far end overflows from R = 177.5 and reads nan from
        # R = 355; both ended in a bare or a nan report
        code, out, err = run(capsys, ["lemma", "hexagon", "--R", f"10,{R}"])
        assert code == 3 and out == ""
        assert error_of(err) == (
            "construction-failed",
            f"R = {float(R)!r} is too large for double precision: the chord between"
            " the hexagon's height-R points leaves double range",
        )

    def test_angle_change_out_of_range_names_R(self, capsys):
        # a word image's squared distance overflows in the rejection test
        code, out, err = run(
            capsys,
            ["lemma", "angle-change", "--R", "130", "--samples", "2000", "--seed", "0"],
        )
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "construction-failed"
        assert "R = 130.0" in error["message"]

    def test_angle_change_needs_a_regular_circle(self, tmp_path, capsys):
        # one pants on three singular circles
        path = tmp_path / "f.json"
        path.write_text(
            PantsComplex(
                pants=(Pants(slots=(0, 1, 2)),), circles=(Circle(d=2),) * 3
            ).to_json()
        )
        code, out, err = run(
            capsys,
            ["lemma", "angle-change", "--complex", str(path), "--samples", "10", "--seed", "0"],
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-config"
        assert "no regular circle" in error["message"]

    def test_failed_sweep_exit_code(self, capsys, monkeypatch):
        from goodpants import lemmalab
        from goodpants.lemmalab import SweepReport, SweepRow

        forced = SweepReport(
            name="forced",
            rows=(SweepRow(params=(("check", "x"),), measured=1.0, bound=0.0),),
        )
        monkeypatch.setattr(
            lemmalab, "quasigeodesic_stability_check", lambda *a, **k: forced
        )
        code, out, err = run(
            capsys, ["lemma", "delta", "--samples", "10", "--seed", "1"]
        )
        assert code == 4


class TestNonFiniteR:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--L", "0"],
            ["verify", "--complex", "{complex}", "--seed", "1", "--words", "2",
             "--samples", "10"],
            ["lemma", "hexagon"],
            ["lemma", "two-planes", "--eps", "0.01", "--samples", "10", "--seed", "1"],
            ["lemma", "angle-change", "--samples", "10", "--seed", "1"],
        ],
        ids=["build", "verify", "hexagon", "two-planes", "angle-change"],
    )
    def test_refused(self, small_complex, capsys, argv, value):
        argv = [a.format(complex=small_complex) for a in argv] + [f"--R={value}"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": {"code": "invalid-config", "message": f"--R must be finite, got {value}"}
        }

    def test_refused_in_hexagon_list(self, capsys):
        code, out, err = run(capsys, ["lemma", "hexagon", "--R", "10,inf,20"])
        assert code == 2
        assert json.loads(err)["error"]["message"] == "--R must be finite, got inf"


class TestSmallR:
    """A positive R too small to develop fails the construction and says so."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # cuffs of length R read back as parabolic
            (["build", "--L", "0", "--R", "1e-6"],
             r"at R = 1e-06 the cuff of pants 0 slot 0 is too short to measure:"
             r" trace\^2 = .* lies in \[0, 4\]"),
            # R/2 + tau*xi/R <= 0 for some |xi| < 0.1
            (["build", "--L", "0", "--R", "0.3", "--tau", "1", "--seed", "0"],
             r"circle 1 has half-length -0\.00347\d* <= 0 at R = 0\.3:"),
            (["lemma", "angle-change", "--R", "1e-3", "--seed", "0"],
             r"circle 1 has half-length -46\.04\d* <= 0 at R = 0\.001:"),
            # sinh(R/2) below the hexagon solver's floor
            (["build", "--L", "0", "--R", "1e-13"],
             r"at R = 1e-13 pants 0 cannot be built: vanishing sinh in hexagon data$"),
            (["lemma", "angle-change", "--R", "1e-13", "--seed", "0", "--samples", "5"],
             r"at R = 1e-13 pants 0 cannot be built: vanishing sinh in hexagon data$"),
        ],
        ids=["build-parabolic", "build-perturbed", "angle-change-perturbed",
             "build-vanishing-sinh", "angle-change-vanishing-sinh"],
    )
    def test_names_R(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        kind, text = error_of(err)
        assert kind == "construction-failed"
        assert re.match(message, text), text


class TestLargeR:
    """An R too large for double precision fails the construction and names R."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the hexagon solver refuses sides past double range
            (["build", "--L", "0", "--R", "800"],
             "at R = 800.0 pants 0 cannot be built: hexagon sides too long for double precision"),
            # cmath.cosh of a side overflows before the solver checks it
            (["build", "--L", "0", "--R", "1500"],
             "at R = 1500.0 pants 0 cannot be built: math range error"),
            (["verify", "--complex", "{complex}", "--R", "1500", "--seed", "0"],
             "at R = 1500.0 pants 0 cannot be built: math range error"),
            (["lemma", "angle-change", "--R", "1500", "--seed", "0"],
             "at R = 1500.0 pants 0 cannot be built: math range error"),
        ],
        ids=["build-800", "build-1500", "verify-1500", "angle-change-1500"],
    )
    def test_names_R(self, capsys, small_complex, argv, message):
        argv = [a.format(complex=small_complex) for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 3
        assert out == ""
        assert error_of(err) == ("construction-failed", message)


def error_of(err):
    """The one JSON error line on stderr, as (code, message)."""
    assert err.endswith("\n") and err.count("\n") == 1, err
    error = json.loads(err)["error"]
    assert set(error) == {"code", "message"}
    return error["code"], error["message"]


# the options of each lemma sweep: 17 (sweep, option) pairs
LEMMA = {
    "delta": ["--delta", "--samples", "--seed", "--out"],
    "hexagon": ["--R", "--out"],
    "two-planes": ["--eps", "--R", "--samples", "--seed", "--out"],
    "angle-change": ["--p", "--R", "--complex", "--samples", "--seed", "--out"],
}
# an option some sweep reads, given to a sweep that does not read it: 15
# pairs, each refused
IGNORED = [
    (sweep, option)
    for sweep in LEMMA
    for option in ["--delta", "--R", "--eps", "--p", "--complex", "--samples", "--seed"]
    if option not in LEMMA[sweep]
]
# the rest of a command line that the sweep runs
SWEEP_ARGV = {
    "hexagon": ["--R", "10,20"],
    "delta": ["--samples", "20", "--seed", "0"],
    "two-planes": ["--samples", "20", "--seed", "0"],
    "angle-change": ["--samples", "20", "--seed", "0"],
}
IGNORED_VALUE = {
    "--delta": "1e-3", "--eps": "0.05", "--p": "5", "--complex": "nope.json",
    "--samples": "20", "--seed": "0", "--R": "40",
}
# commands that write their report, or a complex, to --out
WRITERS = {
    "build": ["build", "--L", "0"],
    "verify": ["verify", "--complex", "{complex}", "--seed", "0", "--samples", "10",
               "--words", "1"],
    "homology": ["homology", "--book"],
    "hexagon": ["lemma", "hexagon", "--R", "10"],
    "delta": ["lemma", "delta", "--samples", "20", "--seed", "0"],
}


class TestEveryOptionIsRead:
    """A command accepts only the options its handler reads."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["lemma", sweep, *SWEEP_ARGV[sweep], option, IGNORED_VALUE[option]],
                f"goodpants: unrecognized arguments: {option} {IGNORED_VALUE[option]}",
                id=f"{sweep} {option}",
            )
            for sweep, option in IGNORED
        ]
        + [
            pytest.param(
                ["homology"],
                "goodpants homology: one of the arguments --complex --book"
                " --free-product is required",
                id="homology no mode",
            ),
            pytest.param(
                ["homology", "--book", "--complex", "x.json"],
                "goodpants homology: argument --complex: not allowed with argument --book",
                id="homology two modes",
            ),
        ],
    )
    def test_refused(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert error_of(err) == ("invalid-config", message)

    @pytest.mark.parametrize("sweep", list(LEMMA))
    def test_help_lists_only_the_sweeps_options(self, capsys, sweep):
        code, out, err = run(capsys, ["lemma", sweep, "--help"])
        assert code == 0 and err == ""
        assert out.startswith(f"usage: goodpants lemma {sweep}")
        assert set(re.findall(r"--[\w-]+", out)) == {"--help", *LEMMA[sweep]}

    @pytest.mark.parametrize(
        "argv",
        [["homology", "--complex", ""], ["lemma", "angle-change", "--complex", "",
                                         "--samples", "10", "--seed", "0"]],
        ids=["homology", "angle-change"],
    )
    def test_empty_complex_path_is_read(self, capsys, argv):
        # an empty path is a path, not a missing option
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert error_of(err) == (
            "invalid-config", "cannot read : [Errno 2] No such file or directory: ''"
        )

    @pytest.mark.parametrize("dest", ["", "missing/x"], ids=["empty", "missing-dir"])
    @pytest.mark.parametrize("command", list(WRITERS))
    def test_unwritable_out(self, small_complex, tmp_path, capsys, command, dest):
        path = str(tmp_path / dest) if dest else ""
        argv = [a.format(complex=small_complex) for a in WRITERS[command]]
        code, out, err = run(capsys, [*argv, "--out", path])
        assert code == 2 and out == ""
        kind, message = error_of(err)
        assert kind == "invalid-config"
        if command in LEMMA and not dest:
            assert message == "--out needs a file name prefix, got ''"
        else:
            written = path + ".json" if command in LEMMA else path
            assert message.startswith(f"cannot write {written}: [Errno 2]"), message


class TestOneRuleForInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--complex", "{path}", "--seed", "1", "--words", "2", "--samples", "10"],
            ["homology", "--complex", "{path}"],
            ["lemma", "angle-change", "--complex", "{path}", "--seed", "1", "--samples", "10"],
        ],
        ids=["verify", "homology", "lemma"],
    )
    def test_disconnected_complex_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "two.json"
        path.write_text(two_chains(share_singular=False).to_json())
        code, out, err = run(capsys, [a.format(path=path) for a in argv])
        assert code == 2
        assert out == ""
        assert error_of(err) == (
            "invalid-config", f"{path} fails validation: complex is not connected"
        )

    def test_singular_join_has_homology(self, tmp_path, capsys):
        path = tmp_path / "joined.json"
        path.write_text(two_chains(share_singular=True).to_json())
        code, out, err = run(capsys, ["homology", "--complex", str(path)])
        assert code == 0 and err == ""
        assert json.loads(out)["h1"]["describe"] == "Z^9 + Z/3 + Z/3"

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (
                ["verify", "--complex", "{path}", "--seed", "1", "--words", "2", "--samples", "10"],
                [(["--p", "3"], 4), (["--p", "6"], 0)],
            ),
            (
                ["lemma", "angle-change", "--complex", "{path}", "--seed", "1", "--samples", "10"],
                [([], 0)],
            ),
        ],
        ids=["verify", "lemma"],
    )
    def test_singular_join_develops(self, tmp_path, capsys, argv, runs):
        # the join is circle 0, of degree 3 with two attachments, so its
        # D = 6 feet are 2*pi/6 apart: too close for p = 3, enough for p = 6.
        # Each command gives its own verdict; none refuses the join
        path = tmp_path / "joined.json"
        path.write_text(two_chains(share_singular=True).to_json())
        for extra, want in runs:
            code, out, err = run(capsys, [a.format(path=path) for a in argv] + extra)
            report = json.loads(out)
            assert (code, err, report["pass"]) == (want, "", want == 0)
            if "checks" in report:
                failed = [name for name, c in report["checks"].items() if not c["pass"]]
                assert failed == ([] if want == 0 else ["p_separated"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--tau", "2"], "--tau must lie in [0, 1]"),
            (["verify", "--tau", "-0.5"], "--tau must lie in [0, 1]"),
            (["verify", "--R", "0"], "--R must be positive"),
            (["verify", "--p", "1"], "--p must be at least 2"),
            (["lemma", "angle-change", "--R", "-5"], "--R must be positive"),
            (["lemma", "angle-change", "--R", "0"], "--R must be positive"),
            (["lemma", "angle-change", "--p", "1"], "--p must be at least 2"),
            (["build", "--p", "1"], "--p must be at least 2"),
            (["build", "--R", "-3"], "--R must be positive"),
            (["build", "--tau", "1.5"], "--tau must lie in [0, 1]"),
        ],
    )
    def test_development_options_refused(self, small_complex, capsys, argv, message):
        if argv[0] == "verify":
            argv = argv + ["--complex", str(small_complex)]
        code, out, err = run(capsys, argv + ["--seed", "1"])
        assert code == 2
        assert out == ""
        assert error_of(err) == ("invalid-config", message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "--L", "abc"], "goodpants build: argument --L: invalid int value: 'abc'"),
            (
                ["frob"],
                "goodpants: argument command: invalid choice: 'frob'"
                " (choose from 'build', 'verify', 'homology', 'lemma')",
            ),
            (
                ["verify", "--complex", "x.json"],
                "goodpants verify: the following arguments are required: --seed",
            ),
            ([], "goodpants: the following arguments are required: command"),
            (["build", "--nope"], "goodpants: unrecognized arguments: --nope"),
            (["build", "--seed", "x"], "goodpants build: argument --seed: invalid int value: 'x'"),
        ],
    )
    def test_usage_error_is_json(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert error_of(err) == ("invalid-config", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--L", "0"],
            ["build", "--L", "0", "--tau", "1"],
            ["verify", "--complex", "{complex}", "--samples", "10"],
            ["lemma", "delta", "--samples", "10"],
            ["lemma", "two-planes", "--samples", "10"],
            ["lemma", "angle-change", "--samples", "10"],
        ],
        ids=["build", "build-tau", "verify", "delta", "two-planes", "angle-change"],
    )
    def test_negative_seed_refused(self, small_complex, capsys, argv):
        # build took it without --tau and failed its construction with it;
        # the others refused it only once numpy read it, naming no option
        argv = [a.format(complex=small_complex) for a in argv] + ["--seed", "-1"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        prog = " ".join(["goodpants", *argv[: 2 if argv[0] == "lemma" else 1]])
        assert error_of(err) == (
            "invalid-config", f"{prog}: argument --seed: must be non-negative, got -1"
        )

    def test_help_still_exits_0(self, capsys):
        code, out, err = run(capsys, ["build", "--help"])
        assert code == 0
        assert out.startswith("usage: goodpants build") and err == ""

    def test_verify_reports_a_failed_development(self, small_complex, capsys):
        # the same failure that build --L 0 --R 100 --tau 1 --seed 2
        # reports; development_residual raises it
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--R", "100", "--tau", "1",
             "--seed", "2", "--words", "2", "--samples", "10"],
        )
        assert code == 3
        assert out == ""
        assert error_of(err) == (
            "construction-failed", "frame does not map the cuff axis to (0, infinity)"
        )

    def test_qi_overflow_is_a_construction_failure(self, small_complex, capsys):
        # the QI sampler's long paths overflow at R = 90; that ended in a
        # traceback, then in the bare "(34, 'Numerical result out of range')"
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--R", "90", "--seed", "0",
             "--words", "1", "--samples", "1"],
        )
        assert code == 3
        assert out == ""
        assert error_of(err) == (
            "construction-failed",
            "R = 90.0 is too large for double precision: the QI sampler's path"
            " products leave double range",
        )

    def test_qi_bends_still_refused(self, small_complex, capsys):
        code, out, err = run(
            capsys,
            ["verify", "--complex", str(small_complex), "--p", "2", "--seed", "1",
             "--words", "2", "--samples", "10"],
        )
        assert code == 2
        assert error_of(err) == ("invalid-config", "need p >= 3 for admissible bends")

    @pytest.mark.parametrize("p", ["2", "5"])
    def test_angle_change_past_double_precision(self, capsys, p):
        # the rounded cuff letters made word [6, 1, 4] singular at R = 90;
        # the exact ones keep every word's holonomy invertible there
        code, out, err = run(
            capsys,
            ["lemma", "angle-change", "--R", "90", "--p", p, "--samples", "2000", "--seed", "0"],
        )
        assert code == 0 and err == ""
        assert json.loads(out)["pass"] is True


# Option values for the contract test.  Every size is small, so that the
# whole property runs in about 20 s: --L <= 4 (growth is steep in L),
# --words <= 2 (the scan is exponential in it), --samples <= 20 and
# --g <= 4 (the book's homology is cubic in g).  The size options are
# always given, since their defaults are far larger.
VALUES = {
    "--genus": ["1", "1", "2", "0"],
    "--p": ["3", "3", "5", "2", "1"],
    "--R": ["20", "20", "10", "40", "90", "-5", "nan", "1e6", "abc"],
    "--tau": ["0", "1", "0.5", "2"],
    "--L": ["0", "2", "4", "-1", "abc"],
    "--seed": ["0", "1", "7", "-1"],
    "--samples": ["1", "5", "20", "0"],
    "--words": ["1", "2", "0"],
    "--g": ["1", "4", "0"],
    "--delta": ["1e-4", "1e-3", "0.5", "nan"],
    "--eps": ["0.01", "0.05", "0.5", "nan"],
    "--complex": ["{complex}", "{complex}", "{missing}"],
    "--out": ["{out}", "{out}", "", "{missing}/x"],
}
HEXAGON_R = ["10,20", "", ",", "10,inf", "1", "1e6", "abc"]
OPTIONS = {
    "build": ["--genus", "--p", "--R", "--tau", "--L", "--seed", "--out"],
    "verify": ["--complex", "--R", "--p", "--tau", "--samples", "--seed", "--words", "--out"],
    "homology": ["--g", "--p", "--out"],
    **{f"lemma {sweep}": options for sweep, options in LEMMA.items()},
}
SIZES = {"--L", "--samples", "--words"}
# left out only now and then, as a command without them is refused early
NEEDED = {
    ("verify", "--complex"), ("verify", "--seed"), ("lemma delta", "--seed"),
    ("lemma two-planes", "--seed"), ("lemma angle-change", "--seed"),
}
# group files for homology --free-product, the first one valid
GROUPS = [{"rank": 1, "torsion": [2]}, [1, 2], "x", {"torsion": "x"}, {"rank": -1}, {"rank": 1.5}]
# values a mutation writes into a complex file
ODD = [None, "x", 1.5, True, -1, 0, 2, 7, [], {}, [0, 1, 2, 3]]


def _slots(doc):
    """Every (container, key) of a JSON document, the root excluded."""
    found = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            found.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return found


@st.composite
def complex_texts(draw):
    """A small valid complex file, or one mutated from it.

    The bases are build_xp(1, 3), two disjoint copies of it, and two
    copies joined only across singular circle 0; a mutation drops an
    item, gives it a value of another type, or appends an extra one.
    """
    base = draw(st.sampled_from(["one", "one", "one", "two", "joined", "not json"]))
    if base == "not json":
        return "{not json"
    x = build_xp(1, 3) if base == "one" else two_chains(share_singular=base == "joined")
    doc = json.loads(x.to_json())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        node, key = draw(st.sampled_from(_slots(doc)))
        action = draw(st.sampled_from(["drop", "set", "extra"]))
        if action == "drop":
            del node[key]
        elif action == "set":
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD)))
        elif isinstance(node[key], list):
            node[key].append(copy.deepcopy(draw(st.sampled_from(ODD))))
        elif isinstance(node[key], dict):
            node[key]["extra"] = draw(st.sampled_from(ODD))
    return json.dumps(doc)


@st.composite
def argvs(draw):
    commands = ["build", "verify", "homology", "lemma"]
    command = draw(st.sampled_from([*commands, *commands, "frob", None]))
    if command is None:
        return draw(st.sampled_from([[], ["--version"]]))
    if command == "lemma":
        command += " " + draw(st.sampled_from([*LEMMA, "x"]))
    argv = command.split()
    for option in OPTIONS.get(command, []):
        values = HEXAGON_R if command == "lemma hexagon" and option == "--R" else VALUES[option]
        if option in SIZES:
            given = True
        elif (command, option) in NEEDED:
            given = draw(st.sampled_from([True] * 9 + [False]))
        else:
            given = draw(st.booleans())
        if given:
            argv += [option, draw(st.sampled_from(values))]
    if command == "homology":
        # one mode, mostly; none or two are refused
        book = ["--book"]
        one = ["--complex", "{complex}"]
        group = "{group%d}" % draw(st.integers(0, len(GROUPS) - 1))
        product = ["--free-product", *draw(st.sampled_from([["{complex}"], [group, "{complex}"]]))]
        argv += draw(st.sampled_from([book, one, one, product, [], book + one]))
    junk = draw(st.sampled_from([None] * 12 + ["--nope", "extra", "--R", "x"]))
    if junk is not None:
        argv.insert(draw(st.integers(1, len(argv))), junk)
    return argv


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFailureRule:
    """main alone maps an exception to an exit code, by the exception's class."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--L", "0"],
            ["verify", "--complex", "{complex}", "--seed", "0", "--words", "1", "--samples", "1"],
            ["lemma", "angle-change", "--samples", "10", "--seed", "0"],
        ],
        ids=["build", "verify", "angle-change"],
    )
    @pytest.mark.parametrize(
        "error, code, kind",
        [(DegenerateError, 3, "construction-failed"), (ValueError, 2, "invalid-config")],
        ids=["degenerate", "value"],
    )
    def test_the_class_decides(self, small_complex, capsys, monkeypatch, argv, error, code, kind):
        def boom(x, params):
            raise error("planted in the development")

        monkeypatch.setattr(holonomy, "build_rho", boom)
        code_, out, err = run(capsys, [a.format(complex=small_complex) for a in argv])
        assert code_ == code and out == ""
        assert error_of(err) == (kind, "planted in the development")

    def test_handlers_catch_nothing(self):
        # the exception reaches main, which alone turns it into 2 or 3
        import inspect

        for handler in (cli.cmd_build, cli.cmd_verify, cli.cmd_lemma):
            assert "except" not in inspect.getsource(handler), handler.__name__


class TestContract:
    """Any input succeeds, or exits 2, 3 or 4 and says why in JSON."""

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs(), text=complex_texts())
    @example(argv=["build", "--L", "abc"], text="{}")
    @example(argv=["frob"], text="{}")
    @example(argv=["verify", "--complex", "{complex}"], text="{}")
    @example(argv=["verify", "--complex", "{complex}", "--seed", "1", "--tau", "2"], text="{}")
    @example(argv=["build", "--L", "0", "--R", "90", "--tau", "1", "--seed", "2"], text="{}")
    @example(
        argv=["verify", "--complex", "{complex}", "--R", "90", "--seed", "0", "--samples", "1",
              "--words", "1"],
        text=build_xp(1, 3).to_json(),
    )
    @example(argv=["homology", "--free-product", "{group1}", "{complex}"], text="{}")
    @example(argv=["lemma", "angle-change", "--samples", "5000", "--seed", "0"], text="{}")
    @example(argv=["lemma", "hexagon", "--seed", "0"], text="{}")
    @example(argv=["lemma", "delta", "--R", "40"], text="{}")
    @example(argv=["homology", "--book", "--complex", "{complex}"], text="{}")
    @example(argv=["lemma", "hexagon", "--R", "10,65", "--out", "{out}"], text="{}")
    @example(argv=["build", "--L", "0", "--out", ""], text="{}")
    @example(argv=["build", "--L", "0", "--seed", "-1"], text="{}")
    @example(argv=["homology", "--g", "7", "--p", "9", "--complex", "{complex}"],
             text=build_xp(1, 3).to_json())
    # positive R too small to develop
    @example(argv=["build", "--L", "0", "--R", "1e-6"], text="{}")
    @example(argv=["build", "--L", "0", "--R", "0.3", "--tau", "1", "--seed", "0"], text="{}")
    @example(argv=["lemma", "angle-change", "--R", "1e-3", "--seed", "0"], text="{}")
    # benchmark sizes: the grow workload's build, and verify on a grown complex
    @example(argv=["build", "--L", "64", "--tau", "1", "--seed", "3"], text="{}")
    @example(argv=["verify", "--complex", "{complex}", "--seed", "0", "--words", "4",
                   "--samples", "2000"],
             text=grow_until(build_xp(1, 3), 16).to_json())
    def test_exit_codes_and_errors(self, argv, text):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {
                "complex": Path(tmp, "x.json"),
                "missing": Path(tmp, "missing.json"),
                "out": Path(tmp, "out"),
            }
            paths["complex"].write_text(text)
            for i, group in enumerate(GROUPS):
                paths[f"group{i}"] = Path(tmp, f"g{i}.json")
                paths[f"group{i}"].write_text(json.dumps(group))
            code, out, err = invoke([a.format(**paths) for a in argv])
            if code == 4 and "--out" in argv:
                # the report went to the --out file; a sweep's prefix gains .json
                dest = argv[argv.index("--out") + 1].format(**paths)
                out = Path(dest + ".json" if argv[0] == "lemma" else dest).read_text()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        elif code == 4:
            if argv[0] == "build":
                assert error_of(err)[0] == "not-viable"
            else:
                assert json.loads(out)["pass"] is False
        else:
            assert out == ""
            assert error_of(err)[0] == {2: "invalid-config", 3: "construction-failed"}[code]


class TestThreads:
    def test_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("GOODPANTS_THREADS", "zero")
        code, out, err = run(capsys, ["homology", "--book"])
        assert code == 2
        monkeypatch.setenv("GOODPANTS_THREADS", "0")
        code, out, err = run(capsys, ["homology", "--book"])
        assert code == 2

    def test_byte_identical_reports_across_thread_counts(
        self, small_complex, tmp_path, capsys, monkeypatch
    ):
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("GOODPANTS_THREADS", threads)
            report = tmp_path / f"report{threads}.json"
            code, out, err = run(
                capsys,
                [
                    "verify",
                    "--complex",
                    str(small_complex),
                    "--seed",
                    "11",
                    "--samples",
                    "300",
                    "--words",
                    "3",
                    "--out",
                    str(report),
                ],
            )
            assert code == 0
            outputs.append(report.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lemma_byte_identical(self, capsys, monkeypatch):
        outs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("GOODPANTS_THREADS", threads)
            code, out, _ = run(
                capsys,
                ["lemma", "delta", "--delta", "1e-4", "--samples", "200", "--seed", "5"],
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestVersion:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out, _ = capsys.readouterr()
        assert out.strip()


class TestExports:
    def test_every_exported_name_resolves(self):
        exporting = []
        for info in pkgutil.iter_modules(goodpants.__path__):
            module = importlib.import_module(f"goodpants.{info.name}")
            names = getattr(module, "__all__", None)
            if names is None:
                continue
            exporting.append(info.name)
            missing = [name for name in names if not hasattr(module, name)]
            assert not missing, (info.name, missing)
        assert {"geom", "pants", "holonomy"} <= set(exporting)

    def test_cli_import_leaves_the_sweeps_unloaded(self):
        # build, verify and homology never compile lemmalab: only the
        # lemma command imports it
        src = str(Path(goodpants.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = "import goodpants.cli, sys; print('goodpants.lemmalab' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"

    # modules a command must not load: homology, --version, --help and
    # usage errors start without numpy, and each command leaves out the
    # layers it does not run.  The records are NamedTuples, so no command
    # loads dataclasses; inspect comes with numpy, and only with it
    NO_DATACLASSES = {"dataclasses"}
    NO_INSPECT = {"dataclasses", "inspect"}
    NO_NUMPY = {"numpy", "holonomy", "pants", "geom", "elementwise"} | NO_INSPECT
    NO_COMPLEXES = {"complexes", "holonomy", "homology", "pants"}
    NO_HOMOLOGY = {"homology", "lemmalab"}
    NO_SAMPLING = {"numpy", "elementwise", "lemmalab"}
    # every stream comes from goodpants.streams, with numpy's bits
    NO_NUMPY_RANDOM = {"numpy.random"}
    # a command that reads a complex but never walks or grows one
    NO_WALKS = {"walks"}

    @pytest.mark.parametrize(
        "argv, unloaded, status",
        [
            pytest.param(argv, unloaded, 0, id=" ".join(argv[:2]))
            for argv, unloaded in [
                (["--version"], NO_NUMPY),
                (["--help"], NO_NUMPY),
                (["homology", "--complex", "{complex}"], NO_NUMPY | NO_WALKS),
                (["homology", "--book", "--g", "2", "--p", "4"], NO_NUMPY | {"complexes"}),
                (["homology", "--free-product", "{group}", "{complex}"], NO_NUMPY | NO_WALKS),
                (["lemma", "hexagon", "--R", "10,20"], NO_COMPLEXES | NO_SAMPLING | NO_INSPECT),
                (["lemma", "delta", "--samples", "20", "--seed", "0"],
                 NO_COMPLEXES | NO_NUMPY_RANDOM | NO_DATACLASSES),
                # two-planes and angle-change measure a sample at a time
                # in Python floats: only the delta sweep loads numpy
                (["lemma", "two-planes", "--samples", "20", "--seed", "0"],
                 NO_COMPLEXES | NO_NUMPY_RANDOM | NO_INSPECT | {"numpy", "elementwise"}),
                (["lemma", "angle-change", "--samples", "20", "--seed", "0"],
                 {"homology"} | NO_NUMPY_RANDOM | NO_INSPECT | NO_WALKS | {"numpy", "elementwise"}),
                # the QI sampler and the word scan alone use numpy and
                # elementwise, and build draws from a stream only at tau > 0,
                # in Python ints
                (["build", "--L", "4"],
                 NO_HOMOLOGY | NO_INSPECT | {"numpy", "elementwise", "streams"}),
                (["verify", "--complex", "{complex}", "--seed", "0", "--samples", "20",
                  "--words", "2"], NO_HOMOLOGY | NO_NUMPY_RANDOM | NO_DATACLASSES | NO_WALKS),
            ]
        ]
        + [
            pytest.param(
                ["build", "--L", "4", "--tau", "1", "--seed", "0"],
                NO_HOMOLOGY | NO_NUMPY_RANDOM | NO_DATACLASSES | NO_INSPECT
                | {"numpy", "elementwise"}, 0,
                id="build --L --tau",
            ),
            pytest.param(["frob"], NO_NUMPY, 2, id="frob"),
            pytest.param(["lemma", "delta", "--help"], NO_NUMPY, 0, id="lemma delta --help"),
            # options a command does not read are refused before any import
            pytest.param(["lemma", "delta", "--R", "40"], NO_NUMPY, 2, id="lemma delta --R"),
            pytest.param(
                ["homology", "--book", "--complex", "x"], NO_NUMPY, 2,
                id="homology --book --complex",
            ),
        ],
    )
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, unloaded, status):
        # a fresh interpreter runs the command and lists what it loaded
        paths = {"complex": tmp_path / "x.json", "group": tmp_path / "g.json"}
        paths["complex"].write_text(build_xp(1, 3).to_json())
        paths["group"].write_text(json.dumps({"rank": 1, "torsion": [2]}))
        argv = [a.format(**paths) for a in argv]
        src = str(Path(goodpants.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        probe = (
            "import contextlib, io, json, sys\n"
            "from goodpants.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, sorted(sys.modules)]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(argv)],
            env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
        ).stdout
        code, modules = json.loads(out)
        assert code == status
        loaded = {
            m.removeprefix("goodpants.")
            for m in modules
            if m.split(".")[0] in ("goodpants", "numpy", "dataclasses", "inspect")
        }
        assert not loaded & unloaded, sorted(loaded & unloaded)

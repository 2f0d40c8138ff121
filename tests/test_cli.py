import hashlib
import importlib
import json
import pkgutil

import pytest

import goodpants
import goodpants.cli as cli
from goodpants.cli import main


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
            raise ValueError("no viable development")

        monkeypatch.setattr(cli, "build_rho", boom)
        code, out, err = run(capsys, ["build", "--L", "0"])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "construction-failed"


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

    def test_failed_check_exit_code(self, small_complex, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_p_separated", lambda rho, p: False)
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


class TestHomology:
    def test_book(self, capsys):
        code, out, _ = run(capsys, ["homology", "--book", "--g", "1", "--p", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["h1"] == {"rank": 3, "torsion": [5], "describe": "Z^3 + Z/5"}
        assert doc["sigma"] == 5
        assert doc["surviving_torsion"]["torsion"] == [5]

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
                "4aab28f04a38b4560af9e050dbff3fdba4aaa036a784bde982d682dabb2ebe92", id="angle-change-0",
            ),
            pytest.param(
                ["angle-change", "--p", "3", "--R", "20", "--samples", "10000"], "1",
                "2dbe8cf548644e1098fd586350ddc4efc044466198d520549bba21f03b70b080", id="angle-change-1",
            ),
        ],
    )
    def test_pinned_sweep_bytes(self, capsys, argv, seed, digest):
        # digests of the reports of the per-sample implementation: the
        # sliced sweeps must print the same bytes
        code, out, err = run(capsys, ["lemma", *argv, "--seed", seed])
        assert code in (0, 4) and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["delta", "two-planes", "angle-change"])
    def test_seed_required(self, capsys, name):
        code, out, err = run(capsys, ["lemma", name, "--samples", "10"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-config"

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

    def test_failed_sweep_exit_code(self, capsys, monkeypatch):
        from goodpants.lemmalab import SweepReport, SweepRow

        forced = SweepReport(
            name="forced",
            rows=(SweepRow(params=(("check", "x"),), measured=1.0, bound=0.0),),
        )
        monkeypatch.setattr(
            cli, "quasigeodesic_stability_check", lambda *a, **k: forced
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

import ast
import json
import os
import subprocess
import sys

import pytest

from serrelab import cli

from conftest import fixture_path

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "serrelab.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_check_appendix_fixture():
    proc = run_cli("check", fixture_path("appendix9.json"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    perm = report["checks"][0]["report"]["permutation"]
    assert perm["1"] == "9" and perm["5"] == "7" and perm["2"] == "2"


def test_check_exit_codes(tmp_path):
    kite = {
        "elements": ["e", "a", "ab", "ac", "abc"],
        "covers": [["e", "a"], ["a", "ab"], ["a", "ac"], ["ab", "abc"], ["ac", "abc"]],
    }
    path = tmp_path / "kite.json"
    path.write_text(json.dumps(kite))
    assert run_cli("check", str(path)).returncode == 2
    assert run_cli("check", str(tmp_path / "missing.json")).returncode == 1
    assert run_cli("check", "--gen", "nonsense", "3").returncode == 1
    assert run_cli("check").returncode == 1  # neither file nor generator
    # generator specs with missing, extra or out-of-range arguments, and a
    # step budget below 1, are malformed input: one error line, no traceback
    bad_specs = [
        ("check", "--gen", "tamari"),
        ("check", "--gen", "typeI"),
        ("check", "--gen", "boolean"),
        ("check", "--gen", "product", fixture_path("kite.json")),
        ("check", "--gen", "tamari", "2", "x"),
        ("gen", "--gen", "boolean", "-3"),
        ("gen", "--gen", "chainprod"),
        ("check", "--gen", "tamari", "3", "--max-steps", "0"),
        ("orbit", "--gen", "tamari", "3", "--max-steps", "-1"),
        ("crosscheck", "--gen", "tamari", "3", "--max-steps", "0"),
    ]
    for argv in bad_specs:
        proc = run_cli(*argv)
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith("error: "), argv
        assert "Traceback" not in proc.stderr, argv
    bad_covers = {
        "bowtie": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],  # not a lattice
        "cycle": [["a", "b"], ["b", "c"], ["c", "a"]],
        "redundant": [["a", "b"], ["b", "c"], ["a", "c"]],
    }
    malformed = {name: {"elements": list("abcd"), "covers": c} for name, c in bad_covers.items()}
    # files of the wrong shape, and non-string labels that would print alike
    malformed |= {
        "top-list": [["a"], []],
        "top-string": "pentagon",
        "elements-string": {"elements": "ab", "covers": [["a", "b"]]},
        "elements-object": {"elements": {"a": 1}, "covers": []},
        "covers-object": {"elements": ["a", "b"], "covers": {"a": "b"}},
        "element-list": {"elements": [["a"], "b"], "covers": []},
        "cover-holds-list": {"elements": ["a", "b"], "covers": [[["a"], "b"]]},
        "int-label": {"elements": ["1", 1], "covers": [["1", 1]]},
        "missing-covers": {"elements": ["a"]},
    }
    for name, data in malformed.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        proc = run_cli("check", str(path))
        assert proc.returncode == 1, name
        assert proc.stdout == "", name
        assert proc.stderr.startswith("error: "), name
        assert "Traceback" not in proc.stderr, name
    # polygon sizes below n = 1 and exceeded guardrails are malformed input too
    for n in ("0", "-1", "-3"):
        proc = run_cli("geom", "--n", n)
        assert proc.returncode == 1, n
        assert proc.stderr.startswith(f"error: geom needs n >= 1, got n={n}"), n
    assert run_cli("geom", "--n", "8").returncode == 1
    assert run_cli("geom", "--n", "9").returncode == 1
    assert run_cli("typea", "--n", "6", "--orientation", "LLLLL").returncode == 1


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_exhaustion_is_one_line_not_a_traceback(exc, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise exc("exhausted")

    from serrelab import coxeter  # cmd_check imports the check from its layer

    monkeypatch.setattr(coxeter, "combinatorial_serre_check", exhausted)
    assert cli.main(["check", fixture_path("pentagon.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == f"resource limit: {exc.__name__}('exhausted')"
    assert [l for l in lines if not l.startswith("elapsed: ")] == lines[:1]


def test_guardrails_reject_before_listing_anything(monkeypatch, capsys):
    # past the rank cap no orientation is listed, past the size cap no label:
    # both used to be built in full (2^(n-1) strings, m + 2 labels) first
    from serrelab import lattice, typea

    def too_late(*args):
        raise AssertionError(f"built past the guardrail: {args}")

    monkeypatch.setattr(typea, "all_orientations", too_late)
    monkeypatch.setattr(typea, "build_lattice", too_late)
    assert cli.main(["typea", "--n", str(typea.QUIVER_GUARDRAIL + 1), "--all-orientations"]) == 1
    m = lattice.SIZE_GUARDRAIL - 1
    assert cli.main(["check", "--gen", "typeI", str(m)]) == 1
    # B_20000 is rejected at its 14th doubling, not after 2^20000 is
    # multiplied out and formatted past Python's int-to-str digit limit
    assert cli.main(["check", "--gen", "boolean", "20000"]) == 1
    err = capsys.readouterr().err
    assert err.count(f"> {lattice.SIZE_GUARDRAIL}") == 2
    assert "16384 elements > 10000" in err


def test_reports_are_byte_identical():
    a = run_cli("check", fixture_path("appendix9.json")).stdout
    b = run_cli("check", fixture_path("appendix9.json")).stdout
    assert a == b
    assert "timing" not in json.loads(a)


def test_check_derived_typei():
    proc = run_cli("check", "--gen", "typeI", "4", "--derived")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    derived = report["checks"][1]
    assert derived["fcy_pair"] == [4, 5]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tamari_fcy_pair_matches_rognerud(n):
    # Tamari(n) is (n(n-1), 2(n+1))-fractionally Calabi-Yau (Rognerud,
    # Adv. Math. 2021)
    proc = run_cli("check", "--gen", "tamari", str(n), "--derived")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["checks"][1]["fcy_pair"] == [n * (n - 1), 2 * (n + 1)]


def test_orbit_command():
    proc = run_cli("orbit", fixture_path("appendix9.json"), "--start", "1")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    steps = report["orbits"][0]["steps"]
    assert steps[0]["dimension_vector"] == [0, 0, 0, 1, 1, 0, 1, 0, 0]
    assert steps[0]["shift"] == 2
    assert report["orbits"][0]["period"] == 4


def test_gen_matches_golden_tamari():
    proc = run_cli("gen", "--gen", "tamari", "4")
    assert proc.returncode == 0
    got = json.loads(proc.stdout)
    with open(fixture_path("tamari4.json")) as fh:
        golden = json.load(fh)
    assert got == golden


def test_gen_chainprod_and_product(tmp_path):
    proc = run_cli("gen", "--gen", "chainprod", "2", "2")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["elements"]) == 4
    f1 = tmp_path / "c2.json"
    f1.write_text(json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}))
    proc2 = run_cli("gen", "--gen", "product", str(f1), str(f1))
    assert proc2.returncode == 0
    assert len(json.loads(proc2.stdout)["elements"]) == 4


def test_typea_command():
    proc = run_cli("typea", "--n", "2", "--orientation", "L")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    checks = report["runs"][0]["checks"]
    assert checks["counts"]["mutable_intervals"] == 12
    assert all(c["ok"] for c in checks.values())


def test_typea_all_orientations():
    proc = run_cli("typea", "--n", "2", "--all-orientations", "--fast")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert len(report["runs"]) == 2
    assert all(r["checks"]["counts"]["mutable_intervals"] == 12 for r in report["runs"])


def test_typea_rejects_malformed_quivers():
    # a letter other than L or R, a wrong orientation length and a rank below
    # 1 are malformed input; a rank past the cap fails at the guardrail
    for argv in (["--n", "3", "--orientation", "LX"], ["--n", "3", "--orientation", "L"], ["--n", "0"]):
        proc = run_cli("typea", *argv)
        assert proc.returncode == 1, argv
        assert proc.stdout == "", argv
        assert proc.stderr.startswith("error: "), argv
        assert "Traceback" not in proc.stderr, argv
    proc = run_cli("typea", "--n", "6", "--orientation", "LLLLL")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: n=6 > 5")


def test_typea_orientation_flags_are_exclusive():
    proc = run_cli("typea", "--n", "3", "--orientation", "LL", "--all-orientations")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: argument --all-orientations: not allowed with argument --orientation")


def test_geom_command():
    proc = run_cli("geom", "--n", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["checks"]["counts"]["trees"] == 12
    assert report["checks"]["equivariance"]["ok"]
    assert report["checks"]["cycle_multiset_vs_typea"]["ok"]


def test_crosscheck_command():
    proc = run_cli("crosscheck", fixture_path("appendix9.json"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["agree"] is True
    proc2 = run_cli("crosscheck", "--gen", "boolean", "3")
    assert proc2.returncode == 0


def test_json_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check", fixture_path("b2.json"), "--json", str(out))
    assert proc.returncode == 0
    assert json.loads(out.read_text())["ok"] is True
    assert out.read_text() == proc.stdout
    # an unwritable path is one error line, with nothing on stdout
    proc = run_cli("check", fixture_path("b2.json"), "--json", str(tmp_path / "no" / "x.json"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_json_output_file_on_a_large_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("check", "--gen", "tamari", "5", "--derived", "--json", str(out))
    assert proc.returncode == 0
    assert len(proc.stdout) > 500_000
    assert out.read_text() == proc.stdout
    report = json.loads(proc.stdout)
    assert json.loads(out.read_text()) == report
    assert proc.stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_max_steps_flag():
    proc = run_cli("check", "--gen", "chainprod", "4", "4", "--max-steps", "1")
    assert proc.returncode == 2
    assert "no period found" in proc.stderr


def test_field_flag():
    proc = run_cli("check", fixture_path("pentagon.json"), "--derived", "--field", "fp:32003")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_field_flag_rejects_non_primes():
    for spec in ("fp:4", "fp:561", "fp:1", "fp:x"):
        proc = run_cli("check", fixture_path("pentagon.json"), "--field", spec)
        assert proc.returncode == 1, spec
        assert proc.stderr.startswith("error: "), spec


def test_field_flag_accepts_benchmark_primes():
    # every prime the benchmark harness may pick (perfbench/run.py PRIMES)
    from serrelab.fields import PrimeField, parse_field

    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    primes = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PRIMES"]
    )
    assert primes
    for p in primes:
        assert parse_field(f"fp:{p}") == PrimeField(p)

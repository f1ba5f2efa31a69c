"""End-to-end CLI runs, in process via main(argv)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from blockext.cli import main
from test_extengine import CLOSED_REFUSES, ORACLE_REFUSES, refuse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SPEC_A = str(CORPUS / "example-a.blockspec")
SPEC_B = str(CORPUS / "example-b.blockspec")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_validate_example_a(capsys):
    code, doc = run(capsys, "validate", SPEC_A)
    assert code == 0
    assert doc["valid"] and doc["z_order"] == 2
    assert doc["d1_invariants"] == [1] and doc["d2_invariants"] == []
    assert doc["warnings"] == []


def test_validate_assumption_warning(tmp_path, capsys):
    spec = tmp_path / "c2.blockspec"
    spec.write_text("format: blockspec 1\nname: c2\np: 2\nd_orders: 1\n\n"
                    "[generator id]\nperm: 0\naction: 1\n")
    code, doc = run(capsys, "validate", str(spec))
    assert code == 0 and not doc["assumption_ok"]
    assert "AssumptionViolated" in doc["warnings"][0]


def test_validate_bad_action_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.blockspec"
    spec.write_text("format: blockspec 1\nname: bad\np: 3\nd_orders: 1\n\n"
                    "[generator e]\nperm: 1 0\naction: 0\n")
    assert main(["validate", str(spec)]) == 2


@pytest.mark.parametrize("gens", [
    # C_2 generated twice, by 1 and by -1 on C_5: the -1 was dropped
    "[generator a]\nperm: 1 0\naction: 1\n\n"
    "[generator b]\nperm: 1 0\naction: -1\n",
    # the identity permutation with the matrix 2: read as trivial
    "[generator e]\nperm: 0\naction: 2\n"], ids=["twice", "identity"])
def test_validate_generator_matrix_dropped_exits_2(tmp_path, capsys, gens):
    spec = tmp_path / "bad.blockspec"
    spec.write_text("format: blockspec 1\nname: bad\np: 5\nd_orders: 1\n\n"
                    + gens)
    assert main(["validate", str(spec)]) == 2
    assert "action-not-homomorphism" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path):
    spec = tmp_path / "junk.blockspec"
    spec.write_text("format: blockspec 1\nname: x\nwhat: 1\n")
    assert main(["validate", str(spec)]) == 2


def test_chars_example_a(capsys):
    code, doc = run(capsys, "chars", SPEC_A)
    assert code == 0
    assert doc["decomposition_matrix"] == [[1, 0], [0, 1], [1, 1]]
    assert doc["degree_check"] and doc["degree_sq_sum"] == 6
    assert [c["degree"] for c in doc["irr"]] == [1, 1, 2]
    assert doc["precision"] == 4 and "timing_seconds" not in doc


def test_chars_deterministic(tmp_path):
    a, b = tmp_path / "one.json", tmp_path / "two.json"
    assert main(["chars", SPEC_A, "--output", str(a)]) == 0
    assert main(["chars", SPEC_A, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_timing_flag(capsys):
    code, doc = run(capsys, "chars", SPEC_A, "--timing")
    assert code == 0 and isinstance(doc["timing_seconds"], float)


def test_ext_crosscheck(capsys):
    code, doc = run(capsys, "ext", SPEC_A, "0", "1", "--degree", "2")
    assert code == 0
    assert doc["ext"]["pretty"] == "O/p"
    assert doc["ext"]["torsion"] == [{"num": 1, "den": 1}]
    assert doc["shape"]["conforms"] and doc["mode"] == "crosscheck"


def test_ext_modes_agree(capsys):
    _, closed = run(capsys, "ext", SPEC_A, "0", "1", "--mode", "closed")
    _, oracle = run(capsys, "ext", SPEC_A, "0", "1", "--mode", "oracle")
    assert closed["ext"] == oracle["ext"]


def test_ext_least_admissible_precision(capsys):
    # N = max(n_i) + 1 = 2 already certifies every Smith exponent
    code, doc = run(capsys, "ext", SPEC_A, "0", "1", "--precision", "2")
    assert code == 0
    assert doc["ext"]["pretty"] == "O/p" and doc["precision"] == 2


def test_ext_precision_too_low_exits_1(capsys):
    assert main(["ext", SPEC_A, "0", "1", "--precision", "1"]) == 1
    assert "N >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_precision_below_one_exits_2(capsys, precision):
    assert main(["ext", SPEC_A, "0", "1", f"--precision={precision}"]) == 2
    assert "bad-spec-file" in capsys.readouterr().err


def test_precision_below_one_from_env_or_spec_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    spec = tmp_path / "a.blockspec"
    spec.write_text((CORPUS / "example-a.blockspec").read_text()
                    + "precision: 0\n")
    assert main(["chars", str(spec)]) == 2
    monkeypatch.setenv("BLOCKEXT_PRECISION", "-1")
    assert main(["chars", SPEC_A]) == 2
    assert capsys.readouterr().err.count("below 1") == 2


def test_ext_bad_index_exits_2(capsys):
    assert main(["ext", SPEC_A, "0", "9"]) == 2


def test_ext_size_guard_exits_3(capsys):
    assert main(["ext", SPEC_A, "0", "1", "--size-guard", "1"]) == 3


def test_enum_bound_exits_3(capsys):
    assert main(["goodsets", SPEC_B, "--enum-bound", "2"]) == 3


@pytest.mark.parametrize("argv", [
    ["goodsets", SPEC_B, "--enum-bound=0"],
    ["goodsets", SPEC_B, "--enum-bound=-5"],
    ["ext", SPEC_A, "0", "1", "--size-guard=0"],
    ["validate", SPEC_A, "--order-bound=0"],
    ["verify", SPEC_A, "--size-guard=0"],
    ["verify", str(CORPUS), "--precision=0"]])
def test_bound_below_one_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "below 1" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1000000000000000003, 1000000007 * 1000000009],
                         ids=["prime", "composite"])
def test_huge_d_is_refused_before_p_is_tested(tmp_path, capsys, p):
    # |D| = p^2 is past the default size guard: validation refuses it
    # before the primality test and before listing an element of D
    spec = tmp_path / "big.blockspec"
    spec.write_text((CORPUS / "c9.blockspec").read_text()
                    .replace("p: 3", f"p: {p}"))
    started = time.monotonic()
    assert main(["validate", str(spec)]) == 3
    # a lower guard keeps the default bound, a higher one raises it
    assert main(["chars", str(spec), "--size-guard=1"]) == 3
    assert main(["validate", str(spec), "--size-guard=1000000"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: bound exceeded: D of order {p}^2 exceeds the "
                   f"bound {b}" for b in (250000, 250000, 1000000)]
    code, doc = run(capsys, "verify", str(spec))
    assert code == 1 and doc["specs"][0]["checks"] == [
        {"name": "validate", "status": "fail",
         "detail": f"D of order {p}^2 exceeds the bound 250000"}]
    assert time.monotonic() - started < 1


def test_verify_reports_an_order_bound_in_a_check_as_bound(capsys,
                                                          monkeypatch):
    # an OrderBoundExceeded raised inside a check reads as "bound", not as
    # a spec that failed validation
    from blockext import cli
    from blockext.errors import OrderBoundExceeded

    def over_bound(*args, **kwargs):
        raise OrderBoundExceeded("D of order 3^2 exceeds the bound 8")
    monkeypatch.setattr(cli, "ext_block", over_bound)
    code, doc = run(capsys, "verify", str(CORPUS / "c9.blockspec"))
    check = {c["name"]: c for c in doc["specs"][0]["checks"]}
    assert code == 3 and check["ext_sweep"]["status"] == "bound"


def test_verify_refuses_a_setting_below_one_once(tmp_path, capsys,
                                                 monkeypatch):
    # an environment value is refused before any spec is read; a spec's
    # own option below 1 fails that spec's validate check
    spec = tmp_path / "a.blockspec"
    spec.write_text((CORPUS / "example-a.blockspec").read_text()
                    + "size_guard: 0\n")
    code, doc = run(capsys, "verify", str(spec))
    assert code == 1
    assert doc["specs"][0]["checks"] == [
        {"name": "validate", "status": "fail",
         "detail": "size_guard 0 is below 1"}]
    monkeypatch.setenv("BLOCKEXT_ENUM_BOUND", "0")
    assert run(capsys, "verify", SPEC_A) == (2, None)


def test_verify_pure_reads_size_guard_and_precision(capsys):
    # pure D's ext_sweep reads both settings, and the memo the first run
    # fills does not hide the guard.  Over C_3 x C_3 the Koszul complex
    # has C(3, 1) = 3 cells at degree 2, which a guard of 1 refuses
    c3x3, c9 = str(CORPUS / "c3x3.blockspec"), str(CORPUS / "c9.blockspec")
    assert run(capsys, "verify", c3x3)[0] == 0
    code, doc = run(capsys, "verify", c3x3, "--size-guard=1")
    check = {c["name"]: c for c in doc["specs"][0]["checks"]}
    assert code == 3 and check["ext_sweep"]["status"] == "bound"
    assert "guard 1" in check["ext_sweep"]["detail"]
    code, doc = run(capsys, "verify", c9, "--precision=2")
    check = {c["name"]: c for c in doc["specs"][0]["checks"]}
    assert code == 1 and check["ext_sweep"]["status"] == "fail"
    assert "N >= 3" in check["ext_sweep"]["detail"]


def test_verify_reports_bounds_and_exits_3(capsys):
    # every check that builds a bar complex meets the guard; the ones
    # after ext_sweep still run, and quiver, which builds none, passes
    code, doc = run(capsys, "verify", str(CORPUS / "q8-c3xc3.blockspec"),
                    "--size-guard=1")
    assert code == 3 and not doc["passed"]
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert status == {"validate": "pass", "chars": "pass", "golden": "pass",
                      "ext_sweep": "bound", "uct": "bound", "quiver": "pass",
                      "forcing": "bound", "cyclotomic": "pass"}


def test_verify_builds_each_line_once_per_ring(capsys, monkeypatch):
    # V_chi lines, over the block ring and over the residue field for the
    # simple modules and closed mode's Mackey terms, come from the block
    # cache after the first build
    from blockext import modrep
    built = []
    orig = modrep._vchi_matrices

    def counted(ring, F, chi):
        built.append((id(F), id(chi), ring.key()))
        return orig(ring, F, chi)
    monkeypatch.setattr(modrep, "_vchi_matrices", counted)
    code, _ = run(capsys, "verify", str(CORPUS / "q8-c3xc3.blockspec"))
    assert code == 0
    assert len({k[2] for k in built}) == 2  # the block and residue rings
    assert len(built) == len(set(built))


def test_goodsets_c3x9(capsys):
    # the D2 side of closed mode needs no degree-3 profile
    code, doc = run(capsys, "goodsets", str(CORPUS / "c3x9.blockspec"))
    assert code == 0 and doc["agree"]


def test_goodsets_example_a(capsys):
    code, doc = run(capsys, "goodsets", SPEC_A)
    assert code == 0 and doc["agree"]
    assert doc["enumerated_count"] == 1 == doc["predicted_count"]
    assert len(doc["enumerated"][0]) == 2    # one lift per Brauer character


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("BLOCKEXT_PRECISION", "8")
    _, doc = run(capsys, "chars", SPEC_A)
    assert doc["precision"] == 8
    # explicit flag wins over the environment
    _, doc = run(capsys, "chars", SPEC_A, "--precision", "6")
    assert doc["precision"] == 6


def test_env_mode(capsys, monkeypatch):
    monkeypatch.setenv("BLOCKEXT_MODE", "closed")
    _, doc = run(capsys, "ext", SPEC_A, "0", "1")
    assert doc["mode"] == "closed"


def test_verify_single_spec(capsys):
    code, doc = run(capsys, "verify", SPEC_A)
    assert code == 0 and doc["passed"]
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert status == {"validate": "pass", "chars": "pass", "golden": "pass",
                      "ext_sweep": "pass", "uct": "pass", "quiver": "pass",
                      "forcing": "pass", "cyclotomic": "pass"}


def test_verify_closed_past_normal_stabilizers(capsys):
    # S_3 on C_5 x C_5: stabilizers of order 2 that are not normal, so
    # every double coset E_lam1 g E_lam2 must be read as it stands
    spec = Path(__file__).resolve().parent / "specs" / "s3-c5x5.blockspec"
    code, doc = run(capsys, "verify", str(spec), "--mode", "closed")
    assert code == 0 and doc["passed"]
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert status["ext_sweep"] == "pass" and status["forcing"] == "pass"


def test_verify_a4_skips_what_it_cannot_test(capsys):
    # p = 2, a = 1 runs over the unramified ring Z_2[zeta_3], pi = 2
    code, doc = run(capsys, "verify", str(CORPUS / "a4.blockspec"))
    assert code == 0 and doc["passed"]
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert status["ext_sweep"] == "pass" and status["uct"] == "pass"
    assert status["forcing"] == "skip"


def test_verify_uct_skips_without_disjoint_pairs(tmp_path, capsys):
    # E = Z = C_2 acts trivially: one Brauer character, no UCT pair
    spec = tmp_path / "c3z.blockspec"
    spec.write_text("format: blockspec 1\nname: c3z\np: 3\nd_orders: 1\n\n"
                    "[generator z]\nperm: 1 0\naction: 1\n")
    code, doc = run(capsys, "verify", str(spec))
    assert code == 0 and doc["passed"]
    uct = next(c for c in doc["specs"][0]["checks"] if c["name"] == "uct")
    assert uct == {"name": "uct", "status": "skip",
                   "detail": "no pair has disjoint Brauer reductions"}


def test_chars_beyond_1024(tmp_path, capsys):
    # |G| = 2500: Irr(B) is certified without building D x| E
    spec = tmp_path / "c25xc25.blockspec"
    spec.write_text("format: blockspec 1\nname: c25xc25\np: 5\n"
                    "d_orders: 2 2\n\n[generator e]\nperm: 1 2 3 0\n"
                    "action: 0 -1; 1 0\n")
    code, doc = run(capsys, "chars", str(spec))
    assert code == 0 and doc["degree_check"]
    assert doc["degree_sq_sum"] == 2500


def test_verify_corpus_dir(tmp_path, capsys):
    (tmp_path / "goldens").mkdir()
    for name in ("example-a.blockspec", "c9.blockspec"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    for name in ("example-a.chars.json", "c9.chars.json"):
        (tmp_path / "goldens" / name).write_text(
            (CORPUS / "goldens" / name).read_text())
    code, doc = run(capsys, "verify", str(tmp_path))
    assert code == 0 and doc["passed"]
    assert [s["spec"] for s in doc["specs"]] == ["c9", "example-a"]
    pure = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert pure["ext_sweep"] == "pass" and "closed_vs_oracle" not in pure


def refuse_everywhere(m, names):
    """Make each named function raise, in every blockext module that holds
    it, so that a caller anywhere in the package meets the raiser."""
    mods = [mod for key, mod in list(sys.modules.items())
            if key.startswith("blockext")]
    for name in names:
        assert any(hasattr(mod, name) for mod in mods), name
        for mod in mods:
            if hasattr(mod, name):
                m.setattr(mod, name, refuse(name))


def test_verify_closed_builds_no_complex(capsys, monkeypatch):
    # closed mode runs one engine on every spec, pure D included: no
    # oracle, no complex and no induced module
    refuse_everywhere(monkeypatch, CLOSED_REFUSES + ["ext_abelian_oracle"])
    code, doc = run(capsys, "verify", str(CORPUS), "--mode", "closed")
    assert code == 0 and len(doc["specs"]) == 14
    for spec in doc["specs"]:
        names = {c["name"] for c in spec["checks"]}
        assert "ext_sweep" in names and "closed_vs_oracle" not in names
    c9 = next(s for s in doc["specs"] if s["spec"] == "c9")
    status = {c["name"]: c["status"] for c in c9["checks"]}
    assert status == {"validate": "pass", "chars": "pass", "golden": "pass",
                      "ext_sweep": "pass", "uct": "skip", "quiver": "skip",
                      "forcing": "pass", "cyclotomic": "pass"}


def test_verify_oracle_never_calls_closed_mode(tmp_path, capsys, monkeypatch):
    # the five pure-D specs and one block spec
    for name in ("c3x3", "c3x9", "c4x4", "c8", "c9", "example-a"):
        (tmp_path / f"{name}.blockspec").write_text(
            (CORPUS / f"{name}.blockspec").read_text())
    refuse_everywhere(monkeypatch, ORACLE_REFUSES + ["ext_abelian_closed"])
    code, doc = run(capsys, "verify", str(tmp_path), "--mode", "oracle")
    assert code == 0 and len(doc["specs"]) == 6


def test_verify_reports_a_failed_premise_and_goes_on(tmp_path, capsys,
                                                     monkeypatch):
    # a premise check that fails inside the engine is a "fail" entry for
    # its spec; the document is still written and the next spec checked.
    # Once Irr(B) is built, every e != 1 moves each character by a further
    # shift, so example-a's closed mode meets a mu that is not F-fixed
    from blockext import cli
    from blockext.groups import LinearChar
    for name in ("c9", "example-a"):
        (tmp_path / f"{name}.blockspec").write_text(
            (CORPUS / f"{name}.blockspec").read_text())
    verify_block = cli._verify_block

    def planted(ctx, checks, mode):
        cli.build_irr_B(ctx)
        action, on_char = ctx.G.action, ctx.G.action.on_char
        shift = LinearChar(ctx.G.D, (1,) * ctx.G.D.t)
        monkeypatch.setattr(action, "on_char", lambda e, lam: on_char(
            e, lam).mul(shift) if e else on_char(e, lam))
        verify_block(ctx, checks, mode)
    monkeypatch.setattr(cli, "_verify_block", planted)
    code, doc = run(capsys, "verify", str(tmp_path), "--mode", "closed")
    assert code == 1 and not doc["passed"]
    c9, a = ({c["name"]: c for c in s["checks"]} for s in doc["specs"])
    assert all(c["status"] in ("pass", "skip") for c in c9.values())
    assert a["ext_sweep"] == {"name": "ext_sweep", "status": "fail",
                              "detail": "mu is not F-fixed"}
    assert a["cyclotomic"]["status"] == "pass"


def test_verify_corrupted_golden_fails(tmp_path, capsys):
    (tmp_path / "goldens").mkdir()
    (tmp_path / "example-a.blockspec").write_text(
        (CORPUS / "example-a.blockspec").read_text())
    good = (CORPUS / "goldens" / "example-a.chars.json").read_text()
    (tmp_path / "goldens" / "example-a.chars.json").write_text(
        good.replace('"degree_sq_sum": 6', '"degree_sq_sum": 7'))
    code, doc = run(capsys, "verify", str(tmp_path))
    assert code == 1 and not doc["passed"]
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert status["golden"] == "fail"


def test_verify_golden_ignores_only_the_precision(tmp_path, capsys):
    # the chars body does not depend on N: a --precision other than the
    # golden's passes, while an edited character value still fails
    c9 = CORPUS / "c9.blockspec"
    code, doc = run(capsys, "verify", str(c9), "--precision=7")
    status = {c["name"]: c["status"] for c in doc["specs"][0]["checks"]}
    assert code == 0 and status["golden"] == "pass"
    (tmp_path / "goldens").mkdir()
    (tmp_path / "c9.blockspec").write_text(c9.read_text())
    golden = json.loads((CORPUS / "goldens" / "c9.chars.json").read_text())
    golden["irr"][1]["chi"][0]["coeffs"][0]["num"] = -1
    (tmp_path / "goldens" / "c9.chars.json").write_text(
        json.dumps(golden, sort_keys=True, indent=2) + "\n")
    for flags in ((), ("--precision=7",)):
        code, doc = run(capsys, "verify", str(tmp_path / "c9.blockspec"),
                        *flags)
        check = {c["name"]: c for c in doc["specs"][0]["checks"]}
        assert code == 1 and check["golden"]["status"] == "fail"
        assert "golden mismatch" in check["golden"]["detail"]


def test_startup_loads_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency: a fresh interpreter that loads
    # the package and its command line imports no other third-party module
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; before = set(sys.modules); "
            "import blockext, blockext.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'blockext'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_verify_empty_corpus_exits_2(tmp_path):
    assert main(["verify", str(tmp_path)]) == 2

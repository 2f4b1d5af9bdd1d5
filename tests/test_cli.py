import json
import re
import time

import pytest

from qfsplit.cli import _ring_for, main
from qfsplit.report import (
    CatalogEntry,
    CatalogError,
    Report,
    load_catalog,
    run_entry,
    summarize,
)
from qfsplit.ring import PolyRing
from qfsplit.witt import WittVector

BUNDLED = "src/qfsplit/data/catalog.jsonl"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_doublecover_e6_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--p", "3", "--kind", "doublecover", "x^3 + y^4"
        )
        assert code == 0
        assert out.strip() == "not F-split; 2-quasi-F-split (height 2)"

    def test_fermat_p7(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--p", "7", "--kind", "hypersurface", "x^3+y^3+z^3"
        )
        assert code == 0
        assert out.strip() == "F-split (height 1)"

    def test_zero_polynomial_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "--p", "3", "--kind", "hypersurface", "0")
        assert code == 2
        assert "zero polynomial" in err

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "--p", "3", "x +* y")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("poly", ["x^3+y^3+z^3+1", "x - x + 1", "3"])
    def test_hypersurface_constant_term_rejected(self, capsys, poly):
        code, out, err = run_cli(capsys, "check", "--p", "5", poly)
        assert code == 2
        assert out == ""
        assert "zero constant term" in err

    @pytest.mark.parametrize("kind,poly", [("hypersurface", "x^2+y^2"), ("doublecover", "x^2+y^3")])
    def test_characteristic_zero_rejected(self, capsys, kind, poly):
        # PolyRing admits characteristic 0 for integer lifts; check does not
        code, out, err = run_cli(capsys, "check", "--p", "0", "--kind", kind, poly)
        assert code == 2
        assert out == ""
        assert err == "error: characteristic 0 is not prime\n"

    def test_doublecover_constant_term_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--p", "3", "--kind", "doublecover", "x + 1"
        )
        assert code == 2

    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--p", "3", "--kind", "doublecover", "--json", "x^3 + y^4"
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == {"f_split": False, "quasi2": True, "height_le": 2}
        assert "timing_ms" not in data

    def test_explain_includes_intermediates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "check", "--p", "3", "--kind", "doublecover", "--json", "--explain",
            "x^3 + y^4",
        )
        data = json.loads(out)
        inter = data["intermediates"]
        assert inter["socle_image"] == "0"
        assert inter["carry"] == "2*{z/(x^3*y)}"
        assert inter["membership"]["feasible"] is False

    def test_declared_vars_set_the_ring(self, capsys):
        # x^2 + y^2 is Calabi-Yau in 2 variables but not in 3
        code, out, _ = run_cli(
            capsys, "check", "--p", "5", "--vars", "x,y,z", "--json", "x^2+y^2"
        )
        assert code == 0
        assert json.loads(out)["flags"] == ["non-homogeneous-criterion"]

    @pytest.mark.parametrize("poly", ["\u03b1^2 + \u03b2^2 + \u03b3^2", "x\u00e9^2 + y^2 + z^2"])
    def test_variables_are_inferred_by_the_parser_rule(self, capsys, poly):
        # a smooth quadric in three variables with non-ASCII names
        code, out, err = run_cli(capsys, "check", "--p", "5", poly)
        assert (code, out.strip(), err) == (0, "F-split (height 1)", "")

    def test_parse_error_names_its_position(self, capsys):
        code, out, err = run_cli(capsys, "check", "--p", "5", "x^")
        assert (code, out, err) == (2, "", "error: exponent expected (position 2)\n")

    def test_entry_error_exit_two(self, capsys, monkeypatch):
        def fail(f):
            raise RuntimeError("analysis failed")

        monkeypatch.setattr("qfsplit.report.height_search", fail)
        code, _, err = run_cli(capsys, "check", "--p", "7", "x^3+y^3+z^3")
        assert code == 2
        assert "analysis failed" in err


@pytest.mark.parametrize("kind,poly", [("hypersurface", "x^2+y^2"), ("doublecover", "x^2+y^3")])
def test_run_entry_rejects_characteristic_zero(kind, poly):
    # an entry built directly skips CatalogEntry.from_dict's p >= 2 test
    report = run_entry(CatalogEntry(name="p0", p=0, kind=kind, poly=poly))
    assert report.verdict is None
    assert report.error == "ValueError: characteristic 0 is not prime"


@pytest.mark.parametrize(
    "argv",
    [
        ("batch", BUNDLED, "--jobs", "4"),
        ("batch", BUNDLED, "--slack", "3"),
        ("batch", BUNDLED, "--config", "qfsplit.conf"),
        ("check", "--p", "3", "--slack", "3", "x^3 + y^4"),
        ("check", "--p", "3", "--config", "qfsplit.conf", "x^3 + y^4"),
        ("check", "--p", "5", "--max-n", "1", "x^3+y^3+z^3"),
        ("witt", "add", "--p", "2", "--config", "qfsplit.conf", "(x; 1)", "(y; 1)"),
    ],
    ids=["batch-jobs", "batch-slack", "batch-config", "check-slack", "check-config", "check-max-n", "witt-config"],
)
def test_removed_settings_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (("check", "--p", "7", "--timings", "x^3+y^3+z^3"), "--timings"),
        (("check", "--p", "3", "--kind", "doublecover", "--vars", "u,v", "x^3 + y^4"), "--vars"),
        (("witt", "delta", "--p", "3", "--n", "3", "x^3 + y^4"), "--n"),
        (("witt", "identity", "--p", "2", "--n", "3", "x + y"), "--n"),
    ],
    ids=["check-timings-text", "doublecover-vars", "witt-delta-n", "witt-identity-n"],
)
def test_idle_options_exit_two(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert option in err


class TestWittCommands:
    def test_delta(self, capsys):
        code, out, _ = run_cli(capsys, "witt", "delta", "--p", "3", "x^3 + y^4")
        assert code == 0
        assert out.strip() == "x^6*y^4 + x^3*y^8"

    def test_identity_pass(self, capsys):
        code, out, _ = run_cli(capsys, "witt", "identity", "--p", "2", "x + y")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_add_teichmuller_units(self, capsys):
        code, out, _ = run_cli(capsys, "witt", "add", "--p", "2", "[1]", "[1]")
        assert code == 0
        assert out == "(0; 1)\n"

    @pytest.mark.parametrize(
        "texts,variables",
        [
            (["[1]", "[1]"], ("x",)),
            (["(2; 1)", "3"], ("x",)),
            (["(y; x)", "[\u03b1*x]"], ("x", "y", "\u03b1")),
        ],
    )
    def test_operand_ring_infers_variables_with_x_for_constants(self, texts, variables):
        assert _ring_for(3, texts).variables == variables

    def test_mul_vectors(self, capsys):
        code, out, _ = run_cli(capsys, "witt", "mul", "--p", "2", "(x; 1)", "(y; 1)")
        assert code == 0
        assert out == "(x*y; x^2 + y^2)\n"

    def test_teich(self, capsys):
        code, out, _ = run_cli(capsys, "witt", "teich", "--p", "3", "--n", "3", "x*y")
        assert code == 0
        assert out.strip() == "(x*y; 0; 0)"

    def test_constants_at_the_length_cap(self, capsys):
        # outputs pinned from the ghost-component implementation; constants
        # are added in Z/p^8 and must not build a length-8 carry table
        u = "(1; 0; 1; 1; 0; 1; 1; 1)"
        expected = {
            (2, "add"): "(0; 0; 1; 0; 0; 1; 1; 1)",
            (2, "mul"): "(1; 1; 0; 1; 0; 1; 0; 1)",
            (3, "add"): "(0; 1; 0; 1; 1; 0; 2; 1)",
            (3, "mul"): "(2; 1; 1; 2; 1; 0; 1; 1)",
            (5, "add"): "(0; 1; 0; 1; 1; 0; 2; 4)",
            (5, "mul"): "(4; 1; 3; 1; 3; 0; 2; 3)",
            (7, "add"): "(0; 1; 0; 1; 1; 0; 2; 3)",
            (7, "mul"): "(6; 1; 5; 4; 5; 5; 3; 0)",
        }
        start = time.perf_counter()
        for (p, op), result in expected.items():
            q = p - 1
            v = f"({q}; 1; {q}; 0; 1; {q}; 1; {q})"
            code, out, _ = run_cli(capsys, "witt", op, "--p", str(p), u, v)
            assert code == 0
            assert out == result + "\n"
        assert time.perf_counter() - start < 1.0

    def test_multiples_of_one_monomial_at_the_length_cap(self, capsys):
        # outputs pinned from the ghost-component implementation; heads that
        # are multiples of one monomial m carry tau(1, r) * m^{p^{k+1}} and
        # must not build a length-8 carry table
        expected = {
            ("2", "add", "[x]", "[x]"): "(0; x^2; 0; 0; 0; 0; 0; 0)",
            ("2", "mul", "[x]", "[x]"): "(x^2; 0; 0; 0; 0; 0; 0; 0)",
            ("3", "add", "[x]", "[x]"): "(2*x; x^3; 0; 0; 0; 0; 0; 0)",
            ("5", "add", "[x]", "[x]"): "(2*x; 4*x^5; 3*x^25; 0; 4*x^625; 2*x^3125; 4*x^15625; 4*x^78125)",
            ("5", "mul", "[x]", "[x]"): "(x^2; 0; 0; 0; 0; 0; 0; 0)",
            ("7", "add", "[x]", "[x]"): (
                "(2*x; 3*x^7; 3*x^49; 6*x^343; 3*x^2401; 3*x^16807; x^117649; 6*x^823543)"
            ),
            ("5", "add", "[2*x*y]", "[x*y]"): (
                "(3*x*y; 3*x^5*y^5; x^25*y^25; 0; 3*x^625*y^625; 4*x^3125*y^3125; "
                "3*x^15625*y^15625; 3*x^78125*y^78125)"
            ),
            ("7", "add", "[3*x^2]", "[x^2]"): (
                "(4*x^2; 2*x^14; 2*x^98; 4*x^686; 2*x^4802; 2*x^33614; 3*x^235298; 4*x^1647086)"
            ),
        }
        start = time.perf_counter()
        for (p, op, u, v), result in expected.items():
            code, out, _ = run_cli(capsys, "witt", op, "--p", p, "--n", "8", u, v)
            assert code == 0
            assert out == result + "\n"
        assert time.perf_counter() - start < 1.0

    def test_monomial_head_meets_constant_carry(self, capsys):
        # (x; 1; 0; ...) + (2x; 0; ...) = [x]*3 + p: the level-1 heads 1 and
        # c*x^5 are not proportional, so the sum needs the carry table for
        # (5, n-1); it must equal the ghost route.  At n = 8 neither this
        # route nor the ghost route answers within minutes.
        n = 5
        ring = PolyRing(5, ("x",))
        x = ring.gen("x")
        u = WittVector(ring, [x, ring.one()] + [ring.zero()] * (n - 2))
        v = WittVector(ring, [2 * x] + [ring.zero()] * (n - 1))
        ghost = [a + b for a, b in zip(u.ghost(), v.ghost())]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "witt", "add", "--p", "5", u.render(), v.render())
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == WittVector.from_ghost(ring, ghost).render() + "\n"

    @pytest.mark.parametrize("sub", ["delta", "identity", "teich"])
    def test_parenthesised_product_is_a_polynomial(self, capsys, sub):
        expected = run_cli(capsys, "witt", sub, "--p", "2", "x*y + x + y + 1")
        assert expected[0] == 0
        assert run_cli(capsys, "witt", sub, "--p", "2", "(x+1)*(y+1)") == expected

    @pytest.mark.parametrize(
        "operand,result",
        [("(x+1)", "(x)"), ("((x+1)*(y+1))", "(x + y + x*y)"), ("(x; (y+1))", "(1 + x; 1 + x + y)")],
    )
    def test_vector_operands_around_parentheses(self, capsys, operand, result):
        # a "(" at position 0 that closes at the end makes a vector, whatever
        # parentheses its components hold, and sets the length
        code, out, _ = run_cli(capsys, "witt", "add", "--p", "2", operand, "[1]")
        assert code == 0
        assert out == result + "\n"

    def test_parenthesised_product_is_no_witt_operand(self, capsys):
        code, out, err = run_cli(capsys, "witt", "add", "--p", "2", "(x+1)*(y+1)", "[x]")
        assert code == 2
        assert out == ""
        assert "Witt operand must be [poly] or (a0; a1; ...)" in err

    def test_bracketed_product_is_no_witt_operand(self, capsys):
        # the "[" at position 0 closes at position 2, so this is no lift
        code, out, err = run_cli(capsys, "witt", "add", "--p", "2", "[x]*[y]", "[x]")
        assert code == 2
        assert out == ""
        assert "Witt operand must be [poly] or (a0; a1; ...)" in err

    def test_length_mismatch_rejected(self, capsys):
        code, _, err = run_cli(capsys, "witt", "add", "--p", "2", "(x; 1)", "(y; 1; 0)")
        assert code == 2

    def test_operand_longer_than_eight_rejected(self, capsys):
        long = "(" + "; ".join(["x"] * 9) + ")"
        code, _, err = run_cli(capsys, "witt", "add", "--p", "2", long, long)
        assert code == 2
        assert "length 9" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("teich", "--p", "3", "--n", "0", "x"),
            ("teich", "--p", "3", "--n", "-1", "x"),
            ("add", "--p", "3", "--n", "0", "[1]", "[1]"),
        ],
    )
    def test_length_below_one_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "witt", *argv)
        assert code == 2
        assert out == ""
        assert "outside [1, 8]" in err

    @pytest.mark.parametrize("n", ["-1", "0", "9", "1000000000000"])
    @pytest.mark.parametrize("argv", [("teich", "x"), ("add", "[x]", "[y]")])
    def test_length_outside_the_cap_fails_at_once(self, capsys, argv, n):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "witt", argv[0], "--p", "3", "--n", n, *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: length {n} outside [1, 8]\n")


class TestBatch:
    def test_bundled_catalog(self, capsys, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(capsys, "batch", BUNDLED, "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        entries = load_catalog(BUNDLED)
        assert len(lines) == len(entries)
        # input order preserved
        names = [json.loads(line)["entry"]["name"] for line in lines]
        assert names == [entry.name for entry in entries]
        by_name = {json.loads(line)["entry"]["name"]: json.loads(line) for line in lines}
        assert by_name["rdp-e6-p3"]["verdict"]["height_le"] == 2
        fermat_split = {
            p: by_name[f"fermat-cubic-p{p}"]["verdict"]["f_split"] for p in (5, 7, 11, 13)
        }
        assert fermat_split == {5: False, 7: True, 11: False, 13: True}

    def test_deterministic_across_runs(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        run_cli(capsys, "batch", BUNDLED, "-o", str(first))
        run_cli(capsys, "batch", BUNDLED, "-o", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_default_output_has_no_timings(self, capsys):
        code, out, err = run_cli(capsys, "batch", BUNDLED)
        assert code == 0
        with open("tests/golden/bundled_catalog.jsonl", encoding="utf-8") as handle:
            assert out == handle.read()
        assert err == "10 entries: 5 F-split, 4 height 2, 1 not 2-quasi-F-split\n"

    def test_timings_summary_names_wall_time_and_slowest(self, capsys, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        code, out, err = run_cli(capsys, "batch", "--timings", BUNDLED, "-o", str(out_path))
        assert code == 0 and err == ""
        counts, wall, slowest = out.rstrip("\n").split("; ")
        assert counts == "10 entries: 5 F-split, 4 height 2, 1 not 2-quasi-F-split"
        assert re.fullmatch(r"wall \d+\.\d{3} ms", wall)
        reports = [json.loads(line) for line in out_path.read_text().splitlines()]
        reports.sort(key=lambda r: -r["timing_ms"])
        expected = ", ".join(f"{r['entry']['name']} {r['timing_ms']} ms" for r in reports[:3])
        assert slowest == "slowest: " + expected
        assert float(wall.split()[1]) >= sum(r["timing_ms"] for r in reports)

    def test_empty_catalog(self, capsys, tmp_path):
        catalog = tmp_path / "empty.jsonl"
        catalog.write_text("")
        out_path = tmp_path / "out.jsonl"
        code, out, _ = run_cli(capsys, "batch", str(catalog), "-o", str(out_path))
        assert code == 0
        assert out_path.read_text() == ""
        assert out.strip() == "0 entries"

    def test_entry_error_recorded_not_fatal(self, capsys, tmp_path):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text(
            '{"name": "bad", "p": 3, "kind": "hypersurface", "poly": "0"}\n'
            '{"name": "unit", "p": 5, "kind": "hypersurface", "poly": "x^3+y^3+z^3+1"}\n'
            '{"name": "good", "p": 2, "kind": "doublecover", "poly": "x*y"}\n'
        )
        out_path = tmp_path / "out.jsonl"
        code, out, _ = run_cli(capsys, "batch", str(catalog), "-o", str(out_path))
        assert code == 0
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        for bad in lines[:2]:
            assert bad["error"] is not None
            assert bad["flags"] == ["error"]
        assert "zero constant term" in lines[1]["error"]
        assert lines[2]["verdict"]["f_split"] is True
        assert "2 error" in out

    def test_malformed_line_aborts_with_exit_two(self, capsys, tmp_path):
        catalog = tmp_path / "broken.jsonl"
        catalog.write_text('{"name": "ok"\n')
        code, _, err = run_cli(capsys, "batch", str(catalog))
        assert code == 2

    def test_non_list_tags_abort_with_exit_two(self, capsys, tmp_path):
        catalog = tmp_path / "tags.jsonl"
        catalog.write_text('{"name": "t", "p": 3, "kind": "hypersurface", "poly": "x", "tags": 5}\n')
        code, out, err = run_cli(capsys, "batch", str(catalog))
        assert code == 2
        assert out == ""
        assert err == f"error: {catalog}:1: tags must be a list of strings\n"


class TestReportRoundTrip:
    def test_json_round_trip(self):
        entry = CatalogEntry(name="t", p=3, kind="doublecover", poly="x^3 + y^4")
        report = run_entry(entry)
        data = json.loads(report.to_json())
        again = CatalogEntry.from_dict(data["entry"])
        assert again == entry
        assert data["verdict"]["height_le"] == report.verdict.height_le

    def test_catalog_entry_validation(self):
        with pytest.raises(CatalogError):
            CatalogEntry.from_dict({"name": "x", "p": 3, "kind": "nope", "poly": "x"})
        with pytest.raises(CatalogError):
            CatalogEntry.from_dict({"name": "x", "p": 1, "kind": "hypersurface", "poly": "x"})
        for tags in (5, "rdp", ["rdp", 3], None):
            with pytest.raises(CatalogError, match="tags must be a list of strings"):
                CatalogEntry.from_dict({"name": "x", "p": 3, "kind": "hypersurface", "poly": "x", "tags": tags})
        entry = CatalogEntry.from_dict({"name": "x", "p": 3, "kind": "hypersurface", "poly": "x", "tags": ["rdp"]})
        assert entry.tags == ("rdp",)

    def test_summarize_counts(self):
        entries = [
            CatalogEntry("s", 7, "hypersurface", "x^3+y^3+z^3"),
            CatalogEntry("q", 3, "doublecover", "x^3 + y^4"),
        ]
        reports = [run_entry(e) for e in entries]
        text = summarize(reports)
        assert text.startswith("2 entries")
        assert "1 F-split" in text and "1 height 2" in text

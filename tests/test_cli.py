"""The command-line interface: exit codes, JSON determinism, coverage."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gfano import periods, verify
from gfano.cli import MAX_ORDER, POOL_MIN_ORDER, main
from gfano.hauptmodul import UnknownLabel
from gfano.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_family_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "Y24", "--order", "20")
        assert code == 0
        assert out.startswith("PASS")

    def test_mutated_constant_fails_with_report(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "Y24", "--c", "7",
                             "--order", "10")
        assert code == 1
        assert "first mismatch at q^1" in out
        assert "FAIL" in err

    def test_all_families_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "ALL", "--order", "15",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "gfano-report/1"
        reports = payload["reports"]
        assert len(reports) == 10
        assert {r["status"] for r in reports} == {"PASS"}
        assert [r["family"] for r in reports[:8]] == [
            "Y30", "Y28", "Y24", "Y20", "Y12_2", "Y12_3", "Y48_2", "Y48_3"
        ]

    def test_e4_delta_cap_is_noted_on_stderr_only(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "ALL", "--order", "41",
                             "--json")
        assert code == 0
        assert err.splitlines() == [
            "note: the E4 and Delta items are capped at order 40"]
        orders = [r["order"] for r in json.loads(out)["reports"]]
        assert orders == [41] * 8 + [40, 40]

    @pytest.mark.parametrize("argv", [
        ("--family", "ALL", "--order", "40"),
        ("--family", "Y24", "--order", "41"),
    ])
    def test_no_cap_note_when_nothing_is_capped(self, capsys, argv):
        code, _, err = run(capsys, "verify", *argv)
        assert code == 0 and err == ""

    def test_unknown_family_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "Y99")
        assert code == 2
        assert "unknown family" in err

    def test_internal_key_error_is_not_a_config_error(self, monkeypatch):
        def broken(*args):
            raise KeyError("internal")

        monkeypatch.setattr(verify, "verify_identity", broken)
        with pytest.raises(KeyError, match="internal"):
            main(["verify", "--family", "Y24", "--order", "5"])

    def test_internal_unknown_label_is_not_a_config_error(self, monkeypatch):
        # no CLI input names a Hauptmodul label, so this is a fault, not exit 2
        def broken(*args, **kwargs):
            raise UnknownLabel("9Z")

        monkeypatch.setattr(verify, "hauptmodul", broken)
        with pytest.raises(UnknownLabel, match="9Z"):
            main(["verify", "--family", "Y24", "--order", "5"])

    def test_bad_order_is_config_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--family", "Y24", "--order", "0")
        assert code == 2

    def test_non_integer_order_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--order", "abc")
        assert code == 2 and out == ""
        assert "invalid int value: 'abc'" in err

    def test_overrides_on_the_battery_are_config_error(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "ALL", "--s", "4")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: --s/--c overrides need a single --family"]

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "ALL"),
        ("sweep", "--family", "Y28", "--sweep-range", "0:1"),
        ("series", "--family", "Y30"),
    ])
    def test_absurd_order_is_refused_before_any_work(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("verify_all", "verify_identity", "sweep_free_shift"):
            monkeypatch.setattr(verify, name, refuse)
        monkeypatch.setattr(periods, "iseries", refuse)
        code, out, err = run(capsys, *argv, "--order", str(MAX_ORDER + 1))
        assert code == 2 and out == ""
        assert f"--order {MAX_ORDER + 1} is above {MAX_ORDER}" in err
        assert "order^3" in err

    @pytest.mark.parametrize("order,workers", [
        (None, 1), (POOL_MIN_ORDER - 1, 1), (POOL_MIN_ORDER, 2),
    ])
    def test_battery_pools_only_from_pool_min_order(self, capsys, monkeypatch,
                                                     order, workers):
        asked = []

        def record(order, workers=1):
            asked.append(workers)
            return []

        monkeypatch.setattr(verify, "verify_all", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["verify", "--family", "ALL", "--json"]
        if order is not None:
            argv += ["--order", str(order)]
        code, _, _ = run(capsys, *argv)
        assert code == 0 and asked == [workers]

    def test_max_order_itself_is_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(periods, "iseries",
                            lambda key, order: TruncatedSeries([1], order))
        code, out, _ = run(capsys, "series", "--family", "Y30",
                           "--order", str(MAX_ORDER), "--json")
        assert code == 0
        assert json.loads(out)["order"] == MAX_ORDER


class TestSweep:
    def test_free_shift_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "Y28",
                           "--sweep-range", "0:3", "--order", "20")
        assert code == 0
        assert out.count("PASS") == 4

    def test_failing_rows_are_listed_on_stderr(self, capsys, monkeypatch):
        real = verify.sweep_free_shift

        def one_wrong(key, s_range, order):
            reports = real(key, s_range, order)
            reports[1] = reports[1]._replace(first_mismatch=(3, 1, 2))
            return reports

        monkeypatch.setattr(verify, "sweep_free_shift", one_wrong)
        code, out, err = run(capsys, "sweep", "--family", "Y28",
                             "--sweep-range", "0:2", "--order", "10")
        assert code == 1
        assert out.count("PASS") == 2
        assert err.splitlines() == [out.splitlines()[1]]
        assert err.startswith("FAIL") and "first mismatch at q^3: 1 != 2" in err

    def test_help_says_each_shift_rechecks_one_identity(self, capsys):
        code, out, _ = run(capsys, "sweep", "--help")
        assert code == 0
        assert "F(1/H_1) = eta * H_1" in " ".join(out.split())

    def test_bad_range_is_config_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "Y28",
                           "--sweep-range", "zero-three")
        assert code == 2

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_reversed_range_is_config_error(self, capsys, json_flag):
        # an empty range would check nothing and report a vacuous PASS
        code, out, err = run(capsys, "sweep", "--family", "Y28",
                             "--sweep-range", "5:2", *json_flag)
        assert code == 2
        assert "5:2" in err and out == ""

    def test_negative_range_needs_the_equals_form(self, capsys):
        # argparse reads a value that starts with "-" as an option
        code, out, _ = run(capsys, "sweep", "--family", "Y28",
                           "--sweep-range=-3:-1", "--order", "10")
        assert code == 0
        assert out.count("PASS") == 3
        code, out, err = run(capsys, "sweep", "--family", "Y28",
                             "--sweep-range", "-3:-1")
        assert code == 2 and out == ""
        assert "expected one argument" in err

    def test_pinned_shift_family_is_config_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "Y24",
                           "--sweep-range", "0:2")
        assert code == 2
        assert "pinned" in err

    def test_missing_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--sweep-range", "0:2")
        assert code == 2 and out == ""
        assert "required: --family" in err


class TestSeries:
    def test_printed_coefficients(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "Y30", "--order", "10",
                           "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"][:6] == ["1", "3", "15", "105", "855", "7533"]

    def test_normalized_kind(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "Y30", "--order", "5",
                           "--kind", "normalized", "--json")
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "0", "6", "24", "162", "1080"]

    def test_gseries_of_free_shift_family_is_config_error(self, capsys):
        code, out, err = run(capsys, "series", "--family", "Y28",
                             "--kind", "gseries")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Y28" in err

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "Y20", "--order", "3")
        assert code == 0
        assert "t^3: 164" in out

    def test_missing_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "series", "--order", "3")
        assert code == 2 and out == ""
        assert "required: --family" in err


@pytest.mark.parametrize("command", ["tables", "families"])
def test_order_is_not_an_option_of(capsys, command):
    # neither command reads an order, so neither accepts one
    code, out, err = run(capsys, command, "--order", "5")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --order 5" in err


class TestTables:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "tables", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["m23"]) == 12
        assert len(payload["m24_extra"]) == 9
        assert len(payload["s24_extra"]) == 7
        assert len(payload["correspondence"]) == 16
        assert payload["frobenius_mukai"]["status"] == "PASS"

    def test_text_mode_mentions_starred_entries(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "1^2 2^2 3^2 6^2" in out
        assert "*" in out


class TestFamilies:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "families")
        assert code == 0
        for key in ("X6", "Y12_2", "Y12_3", "Y20", "Y24", "Y28", "Y30",
                    "Y48_2", "Y48_3"):
            assert key in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "families", "--json")
        payload = json.loads(out)
        y28 = next(f for f in payload["families"] if f["key"] == "Y28")
        assert y28["s"] == "free" and y28["c"] == "s+1"

    def test_json_names_the_x6_operator(self, capsys):
        code, out, _ = run(capsys, "families", "--json")
        x6 = next(f for f in json.loads(out)["families"] if f["key"] == "X6")
        assert code == 0 and x6["d3"] == "L1"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "Y24", "--order", "8"),
    ("sweep", "--family", "Y30", "--sweep-range", "1:2", "--order", "8"),
    ("series", "--family", "Y20", "--order", "8"),
    ("tables",),
    ("families",),
], ids=lambda argv: argv[0])
def test_every_command_writes_one_envelope(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema"] == "gfano-report/1"
    assert payload["command"] == argv[0]
    target = tmp_path / "out.json"
    code, rerun, _ = run(capsys, *argv, "--json", "--out", str(target))
    assert code == 0 and rerun == ""
    assert target.read_text() == out


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "Y20", "--order", "12", "--json"),
        ("series", "--family", "Y24", "--order", "8", "--json"),
        ("tables", "--json"),
        ("families", "--json"),
    ])
    def test_identical_config_identical_bytes(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_battery_json_is_byte_identical_to_recorded_digest(self):
        # perfbench gates the battery on this recorded digest
        root = Path(__file__).resolve().parent.parent
        with open(root / "perfbench" / "expected.json") as fh:
            want = json.load(fh)["battery"]["30"]["sha256"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "gfano.cli", "verify", "--family", "ALL",
             "--order", "30", "--json"],
            env=env, cwd=root, capture_output=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout).hexdigest() == want

    #: Y28's row at its default s = 0, recorded from the CLI while the
    #: factor 1 − s/H_c was still built at s = 0
    Y28_DIGESTS = {
        30: "6a214558a3eab4004f997529b7e5a18f61556f950ea392a71f2df089ef2d493d",
        200: "b529fb148609c8bd98fefe9cb8bca8a3259ed0953692a6d10f4a68a0de89ed6b",
    }

    @pytest.mark.parametrize("order", [30, 200])
    def test_zero_shift_row_matches_recorded_digest(self, capsys, order):
        code, out, _ = run(capsys, "verify", "--family", "Y28", "--order", str(order),
                           "--json")
        assert code == 0 and '"s": "0"' in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.Y28_DIGESTS[order]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--family", "Y24", "--order", "10",
                           "--json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["reports"][0]["status"] == "PASS"

    def test_unwritable_out_is_config_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "verify", "--family", "Y24", "--order", "5",
                             "--out", str(target))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: cannot write --out {target}: No such file or directory"]
        assert not target.exists()

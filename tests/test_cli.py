import json
from pathlib import Path

import pytest

from evdemand.cli import main
from evdemand.refdata import builtin_dataset
from evdemand.scenario import load_scenario

DATA = Path(__file__).parent.parent / "src" / "evdemand" / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduceCommand:
    def test_all_passes(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "--all")
        assert code == 0
        assert "table3: 8/8 within tolerance" in out
        assert "targets passed: 9/9" in out

    def test_json_table3_has_eight_cells(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "table3", "--format", "json")
        assert code == 0
        [target] = json.loads(out)
        assert target["target"] == "table3"
        assert len(target["cells"]) == 8

    def test_unknown_target_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "bogus")
        assert code == 2
        assert out == ""
        assert "unknown target" in err

    def test_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "--all", "--format", "text")
        _, second, _ = run_cli(capsys, "reproduce", "--all", "--format", "text")
        assert first.encode() == second.encode()


@pytest.mark.parametrize("argv, message", [
    (["reproduce"], "reproduce needs target ids or --all"),
    (["sweep", "paper-2005", "--values", "0.1"], "sweep overrides need --path"),
    (["sweep", "paper-2005"], "scenario has no [sweep] section and no sweep flags were given"),
])
def test_hand_raised_usage_errors_print_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"evdemand: {message}"]


class TestRunCommand:
    def test_run_fixture_path(self, capsys):
        code, out, err = run_cli(capsys, "run", str(DATA / "paper-2005.scn"))
        assert code == 0
        assert "fleet energy" in out
        assert "4953.2 TWh" in out
        assert err == ""

    def test_run_packaged_name(self, capsys):
        code, out, _ = run_cli(capsys, "run", "paper-2001")
        assert code == 0
        assert "3778.7 TWh" in out

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "run", "missing.scn")
        assert code == 2
        assert out == ""
        assert "file not found" in err

    def test_bad_mix_is_validation_failure(self, capsys):
        code, out, err = run_cli(capsys, "run", "bad-mix")
        assert code == 1
        assert out == ""
        assert "sum" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "paper-2005", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"]["total_additional_energy"]["value"] == \
            pytest.approx(6374.17, rel=0.002)

    def test_validate_stops_after_validation(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "paper-2005")
        assert code == 0
        assert "valid" in out
        assert "fleet energy" not in out

    def test_validate_reports_failures(self, capsys):
        code, _, err = run_cli(capsys, "validate", "bad-mix")
        assert code == 1
        assert "sum" in err


class TestSweepCommand:
    def test_progression_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "paper-2005",
                               "--path", "strategy.renewable_share",
                               "--from", "0.1", "--to", "0.3", "--step", "0.1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("index,value,")

    def test_values_flag(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "paper-2005",
                               "--path", "battery.batteries_per_ev",
                               "--values", "1,2,4", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_zero_step_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "paper-2005",
                               "--path", "strategy.renewable_share",
                               "--from", "0.1", "--to", "0.3", "--step", "0")
        assert code == 2
        assert "step" in err

    def test_no_sweep_anywhere_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "paper-2005")
        assert code == 2
        assert "sweep" in err

    def test_sweep_section_in_file(self, capsys, tmp_path):
        text = (DATA / "paper-2005.scn").read_text() + \
            "\n[sweep]\npath = strategy.renewable_share\nvalues = 0.1, 0.2, 0.3\n"
        p = tmp_path / "sweeping.scn"
        p.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "sweep", str(p), "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_partial_failures_still_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "paper-2005",
                               "--path", "strategy.renewable_share",
                               "--values", "0.3,1.5", "--format", "csv")
        assert code == 0
        assert "fraction" in out  # the failing point's error is inline

    def test_all_failures_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "paper-2005",
                               "--path", "strategy.renewable_share",
                               "--values", "1.5,2.5")
        assert code == 1
        assert "every sweep point failed" in err


class TestExportDataset:
    def test_round_trip_to_identical_assessment(self, capsys, tmp_path):
        out_path = tmp_path / "us2005.scn"
        code, _, _ = run_cli(capsys, "export-dataset", "us2005", str(out_path))
        assert code == 0
        code, direct, _ = run_cli(capsys, "run", str(out_path), "--format", "json")
        assert code == 0
        # compare against a minimal scenario referencing the built-in
        ref = tmp_path / "ref.scn"
        ref.write_text("[meta]\ndataset = us2005\n", encoding="utf-8")
        code, via_ref, _ = run_cli(capsys, "run", str(ref), "--format", "json")
        assert code == 0
        direct_payload = json.loads(direct)
        ref_payload = json.loads(via_ref)
        assert direct_payload["values"] == ref_payload["values"]

    def test_exported_dataset_loads_to_identical_data(self, capsys, tmp_path):
        out_path = tmp_path / "ds.scn"
        assert run_cli(capsys, "export-dataset", "us2001", str(out_path))[0] == 0
        loaded = load_scenario(out_path)
        builtin = builtin_dataset("us2001")
        for name in builtin._fields:
            got = getattr(loaded.dataset, name)
            want = getattr(builtin, name)
            if name == "water_intensity":
                assert dict(got) == dict(want)
            else:
                assert got == want, name

    def test_stdout_contains_source_literal(self, capsys):
        code, out, _ = run_cli(capsys, "export-dataset", "us2001", "-")
        assert code == 0
        assert "113.1e9 gal" in out

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "export-dataset", "nope", "x.scn")
        assert code == 2
        assert "unknown dataset" in err

    def test_write_failure_exits_one(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.scn"
        code, _, err = run_cli(capsys, "export-dataset", "us2005", str(target))
        assert code == 1
        assert "cannot write" in err


class TestCliContract:
    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_diagnostics_never_on_stdout(self, capsys):
        for argv in (["run", "missing.scn"], ["reproduce", "bogus"],
                     ["export-dataset", "nope", "x"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err != ""

    def test_run_twice_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "paper-2005")
        _, second, _ = run_cli(capsys, "run", "paper-2005")
        assert first.encode() == second.encode()

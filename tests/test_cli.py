import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orderbound import cli, enumerate_omega, oracle
from orderbound.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


class TestBound:
    def test_lexi_low(self, capsys):
        code, payload = _run_json(
            capsys, "bound", "--method", "lexi-low",
            "--m", "2", "--i", "1", "--n", "2", "--alpha", "0.25",
        )
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["value"] == pytest.approx(0.5)

    def test_pointwise(self, capsys):
        code, payload = _run_json(
            capsys, "bound", "--method", "pointwise",
            "--m", "3", "--i", "2", "--n", "1", "--alpha", "0.5",
        )
        assert code == 0
        assert payload["value"] == pytest.approx(0.5)

    def test_bracket_top_degenerate(self, capsys):
        code, payload = _run_json(
            capsys, "bound", "--method", "lexi-high-bracket",
            "--m", "3", "--i", "2", "--n", "1", "--alpha", "0.5",
        )
        assert code == 0
        assert payload["lo"] == pytest.approx(0.5)
        assert payload["hi"] == pytest.approx(0.5)
        assert payload["top_degenerate"] is True

    def test_quantile(self, capsys):
        code, payload = _run_json(
            capsys, "bound", "--method", "quantile",
            "--m", "2", "--sample", "1,1", "--i", "1",
            "--alpha", "0.25", "--epsilon", "1e-4",
        )
        assert code == 0
        assert payload["p_hat"] == pytest.approx(0.5, abs=1e-3)
        assert payload["bound"] == pytest.approx(0.5, abs=1e-3)
        assert payload["iterations"] >= 10

    def test_quantile_epsilon_finer_than_doubles_fails(self, capsys):
        code, out = _run(
            capsys, "bound", "--method", "quantile",
            "--m", "2", "--sample", "1,1", "--i", "1",
            "--alpha", "0.25", "--epsilon", "1e-18",
        )
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_quantile_epsilon_must_be_finite(self, capsys, epsilon):
        # an infinite epsilon used to print "epsilon": Infinity and
        # "delta": NaN, which strict JSON parsers reject
        code = main(["bound", "--method", "quantile", "--m", "5", "--sample", "0.25,0.75",
                     "--i", "1", "--epsilon", epsilon])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: epsilon must be positive and finite, got {float(epsilon)}\n"

    def test_quantile_payload_keys(self, capsys):
        code, payload = _run_json(
            capsys, "bound", "--method", "quantile",
            "--m", "2", "--sample", "1,1", "--i", "2", "--alpha", "0.25",
        )
        assert code == 0
        assert list(payload) == ["schema_version", "method", "grid", "alpha", "sample", "i",
                                 "p_hat", "bound", "epsilon", "c", "iterations", "delta"]

    def test_paper_literal_tail_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--method", "quantile", "--m", "2", "--sample", "1,1",
                  "--i", "2", "--paper-literal-tail"])
        assert exc.value.code == 2
        assert "--paper-literal-tail" in capsys.readouterr().err

    def test_range_overflowing_a_double_fails(self, capsys):
        # the spacing 1e308 of this range is infinite in a double, and the
        # sample 0.5 used to snap silently to -1e308
        code = main(["bound", "--method", "quantile", "--m", "3", "--i", "1",
                     "--sample=0.5", "--s-min=-1e308", "--s-max=1e308"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error:") and "overflows a double" in err


class TestOracle:
    def test_pointwise_mixed_sample(self, capsys):
        code, payload = _run_json(
            capsys, "oracle", "--order", "pointwise",
            "--m", "2", "--sample", "0,1", "--alpha", "0.25",
        )
        assert code == 0
        want = (1 - math.sqrt(0.5)) / 2
        assert payload["value"] == pytest.approx(want, abs=2e-3)
        assert sum(payload["witness"]) == pytest.approx(1.0, abs=1e-9)
        assert payload["constraint_prob"] >= 0.25 - 1e-12

    def test_quantile_selector(self, capsys):
        code, payload = _run_json(
            capsys, "oracle", "--order", "quantile:1",
            "--m", "3", "--sample", "0.5,1", "--alpha", "0.25",
        )
        assert code == 0
        assert payload["order"] == "quantile:1"
        assert payload["support_used"] == [0, 1, 2]

    @pytest.mark.parametrize("selector", ["quantile:1.5", "quantile:"])
    def test_quantile_selector_needs_an_integer_index(self, capsys, selector):
        # these used to print int()'s "invalid literal for int() with base 10"
        code = main(["oracle", "--order", selector, "--m", "3", "--sample", "0.5,1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: unknown order selector {selector!r}\n"

    def test_off_grid_sample_fails(self, capsys):
        code = main(["oracle", "--order", "lexi-low", "--m", "2",
                     "--sample", "0.37", "--alpha", "0.1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unbuildable_neighbourhood_fails(self, capsys):
        # full support of 16 atoms: a refinement stage would materialize
        # 5,196,627 offsets x 26 centres, so the search refuses up front
        code = main(["oracle", "--order", "lexi-high", "--m", "16",
                     "--sample", "0.2,0.4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k=16" in err

    def test_full_support_on_a_thousand_point_grid_fails_fast(self, capsys):
        # the guard reads only k, so the 500,500-sample space is never
        # built, and the message names k and the guard, not the row count
        code = main(["oracle", "--s-max", "999", "--m", "1000", "--full-support",
                     "--order", "lexi-low", "--sample", "100,200"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k=1000" in err and "16777216" in err
        assert len(err) < 120

    @pytest.mark.parametrize("resolution", ["1e-17", "1e-19", "1e-320"])
    def test_resolution_past_the_precision_limit_fails(self, capsys, monkeypatch, resolution):
        # 1 / 1e-320 overflows a double; the step count is still formed and
        # refused by the precision guard before the sample space is built
        built = []
        monkeypatch.setattr(oracle, "enumerate_omega", lambda *a: built.append(a))
        code = main(["oracle", "--order", "lexi-low", "--m", "2", "--sample", "0,1",
                     "--alpha", "0.25", "--resolution", resolution])
        assert code == 2 and built == []
        err = capsys.readouterr().err
        # a short message naming the resolution, the compact step count and
        # both sides of the refused comparison
        assert re.fullmatch(
            rf"error: resolution {resolution} ends on steps of 1/\d\.\d{{3}}e\+\d+: final"
            r" step times \(s_max - s_min\) = \S+ is below the value's rounding bound"
            r" 3\.33e-16\n", err)
        assert len(err) < 200

    def test_refine_passes_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--order", "lexi-low", "--m", "2", "--sample", "0,1",
                  "--refine-passes", "3"])
        assert exc.value.code == 2
        assert "--refine-passes" in capsys.readouterr().err

    # each search refines coarse to fine; run in-process after earlier
    # calls, these also show that no kernel or offset memo moves a value
    @pytest.mark.parametrize("argv,value", [
        # the neighbourhoods' score bound is scaled to the range [-999, 999]
        (["--order", "lexi-high", "--m", "5", "--s-min=-999", "--s-max", "999",
          "--sample=-499.5,0,499.5", "--alpha", "0.05"], -965.003310381356),
        # pointwise terms are not up-closed: the first scan skips boxes by
        # their score floors alone
        (["--order", "pointwise", "--m", "5", "--sample", "0.25,0.5,0.75", "--alpha", "0.05"],
         0.2763506355932203),
        # radius-1 and radius-2 neighbourhoods, on 7 and 6 atoms
        (["--order", "lexi-high", "--m", "7", "--sample", "0.5,1", "--alpha", "0.25"],
         0.4330240885416667),
        (["--order", "lexi-high", "--m", "6", "--sample", "0.2,0.8", "--alpha", "0.05"],
         0.025390625),
    ], ids=["wide-grid", "pointwise", "radius-1", "radius-2"])
    def test_coarse_to_fine_values_are_pinned(self, capsys, argv, value):
        code, payload = _run_json(capsys, "oracle", *argv)
        assert code == 0
        assert payload["mode"] == "coarse-to-fine" and payload["value"] == value

    def test_first_scan_rescue_value_is_pinned(self, capsys):
        # no row of the first scan is feasible: the search refines from the
        # most probable one, and reports the kernel's probability at its witness
        code, payload = _run_json(capsys, "oracle", "--order", "pointwise", "--m", "5",
                                  "--sample", "0.25,0.75", "--alpha", "0.4999", "--full-support")
        assert code == 0
        assert payload["value"] == 0.4964909957627119
        assert payload["constraint_prob"] >= 0.4999

    @pytest.mark.parametrize("sample", [["--sample=-1,0"], ["--sample", "[-1, 0]"]],
                             ids=["equals", "json"])
    def test_negative_sample_forms(self, capsys, sample):
        # the two forms --sample's help gives for a sample that starts with
        # a negative value
        code, payload = _run_json(capsys, "oracle", "--order", "lexi-low", "--m", "3",
                                  "--s-min=-1", "--s-max", "1", *sample, "--alpha", "0.25")
        assert code == 0
        assert payload["sample"] == [-1.0, 0.0]
        assert payload["mode"] == "dense" and payload["value"] == -0.866

    def test_negative_sample_after_a_space_is_an_option(self, capsys):
        # argparse takes "-1,0" for an option, so --sample gets no value
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--order", "lexi-low", "--m", "3", "--s-min=-1", "--s-max", "1",
                  "--sample", "-1,0", "--alpha", "0.25"])
        assert exc.value.code == 2
        assert "argument --sample: expected one argument" in capsys.readouterr().err
        for command in ("oracle", "bound"):
            parser = cli.build_parser()._subparsers._group_actions[0].choices[command]
            (help_text,) = [a.help for a in parser._actions if "--sample" in a.option_strings]
            assert help_text.endswith(
                "a sample starting with a negative value is written --sample=-1,0"
                " or --sample '[-1, 0]'"), command

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sample_fails(self, capsys, value):
        code = main(["oracle", "--order", "lexi-low", "--m", "2",
                     "--sample", value, "--alpha", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not finite" in err


    @pytest.mark.parametrize("command", [
        ["oracle", "--order", "lexi-low"], ["bound", "--method", "quantile", "--i", "1"]],
        ids=["oracle", "bound"])
    @pytest.mark.parametrize("sample,entry", [
        ("[null]", "null"), ("[[0.5]]", "[0.5]"), ("[true, 1]", "true"), ('["1", 0]', '"1"')])
    def test_json_sample_entries_that_are_not_numbers_fail(self, capsys, command, sample, entry):
        # a JSON entry that is not an int or a float, a bool included, is
        # refused before any grid value is formed
        code = main(command + ["--m", "3", "--sample", sample])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: sample entry {entry} is not a number\n"

    @pytest.mark.parametrize("command", [
        ["oracle", "--order", "lexi-low"], ["bound", "--method", "quantile", "--i", "1"]],
        ids=["oracle", "bound"])
    @pytest.mark.parametrize("entry", ["1_0", "\u0661", "0x1", "1e", "infinity"])
    def test_comma_sample_entries_that_are_not_decimals_fail(self, capsys, command, entry):
        # float() would read 1_0 as 10 and the Arabic-Indic digit one as 1
        code = main(command + ["--m", "11", "--s-max", "10", "--sample", f"{entry},2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: sample entry {entry} is not a number\n"


class TestCoverage:
    def test_exact(self, capsys):
        code, payload = _run_json(
            capsys, "coverage", "--exact", "--m", "2",
            "--dist", "[0.8, 0.2]", "--n", "2", "--alpha", "0.25",
        )
        assert code == 0
        assert payload["mode"] == "EXACT"
        assert payload["coverage"] == pytest.approx(0.96, abs=1e-12)

    def test_mc_reports_seed(self, capsys):
        code, payload = _run_json(
            capsys, "coverage", "--mc", "--m", "2",
            "--dist", "[0.8, 0.2]", "--n", "2", "--alpha", "0.25",
            "--trials", "500", "--seed", "9",
        )
        assert code == 0
        assert payload["mode"] == "MONTE_CARLO"
        assert payload["trials"] == 500 and payload["seed"] == 9

    def test_mc_coverage_is_pinned(self, capsys):
        # a million trials are tallied in 123 chunks of 8,192 rows, each from
        # the runs of its own lexsort
        code, payload = _run_json(
            capsys, "coverage", "--mc", "--m", "3", "--n", "3", "--dist", "[0.2,0.3,0.5]",
            "--trials", "1000000", "--seed", "7", "--alpha", "0.5",
        )
        assert code == 0
        assert payload["coverage"] == 0.649951

    def test_mass_not_summing_to_one_fails(self, capsys):
        # the sum is printed as a Python float, not as np.float64(1.1)
        code = main(["coverage", "--mc", "--m", "3", "--n", "2", "--dist", "[0.2,0.3,0.6]"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: mass must sum to 1 within 1e-12, got 1.1\n"

    def test_nan_mass_fails(self, capsys):
        code = main(["coverage", "--exact", "--m", "2", "--n", "2",
                     "--dist", "[NaN, 1.0]"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("dist,entry", [("[true, false]", "true"), ('["0.5", "0.5"]', '"0.5"')])
    def test_masses_that_are_not_numbers_fail(self, capsys, dist, entry):
        # a bool or a numeric string is no mass, though it would convert
        code = main(["coverage", "--exact", "--m", "2", "--n", "1", "--dist", dist])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: mass entry {entry} is not a number\n"


class TestVerify:
    def test_sandwich_passes(self, capsys):
        code, out = _run(capsys, "verify", "sandwich", "--m", "2", "--n", "2",
                         "--alpha", "0.25")
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)

    def test_sandwich_refuses_a_componentwise_matrix_too_large(self, capsys):
        # 80,200 samples: the componentwise order would take two 6.4 GB matrices
        code = main(["verify", "sandwich", "--m", "400", "--n", "2"])
        enumerate_omega.cache_clear()  # drop the 80,200-sample Omega
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "80200 x 80200" in err

    def test_agreement_passes(self, capsys):
        code, reports = _run_json(capsys, "verify", "agreement", "--trials", "20")
        assert code == 0
        assert [r["theorem"] for r in reports] == ["agreement[lexi-low]", "agreement[quantile:2]"]
        assert all(r["passed"] and r["instances_checked"] == 20 for r in reports)

    @pytest.mark.parametrize("campaign", ["agreement", "all"])
    def test_zero_trials_is_an_error(self, capsys, campaign):
        code = main(["verify", campaign, "--m", "2", "--n", "2", "--trials", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "at least one trial" in err

    @pytest.mark.parametrize("campaign", ["sandwich", "consistency", "agreement", "all"])
    @pytest.mark.parametrize("alpha", ["7", "1", "-0.1"])
    def test_alpha_outside_unit_interval_is_an_error(self, capsys, campaign, alpha):
        # the agreement campaign reads no alpha, but an invalid one is still refused
        code = main(["verify", campaign, "--m", "2", "--n", "2", "--alpha", alpha])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"alpha must be in [0, 1), got {float(alpha)}" in err

    def test_all_refuses_a_resolution_whose_reciprocal_overflows(self, capsys, monkeypatch):
        # 1 / 1e-320 overflows a double: the first oracle call's precision
        # guard refuses it before the oracle builds its sample space
        built = []
        monkeypatch.setattr(oracle, "enumerate_omega", lambda *a: built.append(a))
        code = main(["verify", "all", "--m", "3", "--n", "2", "--resolution", "1e-320"])
        assert code == 2 and built == []
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(
            r"error: resolution 1e-320 ends on steps of 1/\d\.\d{3}e\+309: final step times"
            r" \(s_max - s_min\) = \S+ is below the value's rounding bound \S+\n", err)
        assert len(err) < 200

    def test_all_refuses_scores_that_overflow_a_double(self, capsys):
        # every score on [0, 1e308] overflowed, and the first oracle call
        # died with a TypeError on its missing rescue row
        code = main(["verify", "all", "--m", "3", "--n", "2", "--s-max=1e308"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: scores overflow a double: 8000 steps times")

    @pytest.mark.parametrize("m,n", [(4, 2), (3, 3)])
    def test_all_with_twelve_extensions(self, capsys, m, n):
        code, reports = _run_json(capsys, "verify", "all", "--m", str(m), "--n", str(n),
                                  "--trials", "20")
        assert code == 0
        assert all(r["passed"] for r in reports)
        # 12 extensions, each checked at the m homogeneous samples and more
        assert reports[0]["theorem"] == "sandwich" and reports[0]["instances_checked"] > 24 * m

    def test_all_counts_every_cache_lookup(self, capsys, monkeypatch):
        # the campaigns share one cache: its hits and misses add up to the
        # lookups made, some of them hits, and each miss stored one value
        caches, lookups = [], []

        class Counted(cli.OracleCache):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                caches.append(self)

            def value(self, *a, **kw):
                lookups.append(a)
                return super().value(*a, **kw)

        monkeypatch.setattr(cli, "OracleCache", Counted)
        code, reports = _run_json(capsys, "verify", "all", "--m", "3", "--n", "2")
        assert code == 0 and all(r["passed"] for r in reports)
        [cache] = caches
        assert cache.hits > 0
        assert cache.hits + cache.misses == len(lookups)
        assert cache.misses == len(cache._values)

    def test_csv_format(self, capsys):
        code, out = _run(capsys, "verify", "sandwich", "--m", "2", "--n", "2",
                         "--alpha", "0.25", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and rows[0]["theorem"] == "sandwich"
        assert rows[0]["passed"] == "True"


def test_bound_csv_format(capsys):
    code, out = _run(capsys, "bound", "--method", "lexi-low", "--m", "2",
                     "--i", "1", "--n", "1", "--alpha", "0.5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["value"]) == pytest.approx(0.5)


def test_closed_stdout_pipe_exits_1_without_a_traceback():
    # the reader's end is closed before the child writes, so its first
    # flush meets a broken pipe every time, not only when `| head` wins a race
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "orderbound.cli", "bound", "--method", "lexi-low",
             "--m", "2", "--i", "1", "--n", "2", "--alpha", "0.25"],
            stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
            timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _readme_block(heading: str, fence: str) -> str:
    """The first code block with this fence after the heading in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(heading, 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_matches_its_comments():
    """Every line of the Quick tour whose comment ends in a decimal
    (optionally followed by "...") evaluates to that decimal when rounded
    to its digits; the other lines set up the names they use."""
    scope: dict = {}
    checked = 0
    for line in _readme_block("## Quick tour", "python").splitlines():
        code, _, comment = line.partition("#")
        shown = re.search(r"(\d+\.(\d+))(\.\.\.)?$", comment.strip())
        if shown is None:
            exec(code, scope)
            continue
        value = eval(code, scope)
        assert f"{value:.{len(shown[2])}f}" == shown[1], line
        checked += 1
    assert checked == 4


def _readme_cli_commands() -> list[str]:
    """The commands of the sh block under "CLI equivalents" in README.md,
    with backslash continuations joined."""
    block = _readme_block("CLI equivalents:", "sh")
    return [cmd for cmd in re.sub(r"\s*\\\n\s*", " ", block).splitlines() if cmd.strip()]


def test_readme_cli_commands_are_found():
    commands = _readme_cli_commands()
    assert len(commands) == 5
    assert all(cmd.startswith("orderbound ") for cmd in commands)


@pytest.mark.parametrize("cmd", _readme_cli_commands())
def test_readme_cli_command_runs(capsys, cmd):
    code = main(shlex.split(cmd)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert json.loads(captured.out)

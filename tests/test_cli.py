"""Command-line surface: golden outputs, file writing, error codes."""

import contextlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import doflab
from doflab import cli, errors, rational
from doflab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def run(capsys, monkeypatch):
    monkeypatch.delenv("DOFLAB_SEED", raising=False)

    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


needs_alarm = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


@contextlib.contextmanager
def within(seconds):
    """Fail the body with TimeoutError once it has run ``seconds`` (SIGALRM)."""

    def expired(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# rho stays finite up to about 3082 dB, far above the rate campaign's SNR
# limit for this plan (254.8 dB at alpha = 1)
OVERFLOWING_SNR = ["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--snr-min", "3000",
                   "--snr-max", "3080", "--snr-step", "40", "--trials", "2"]


class TestRegion:
    def test_json_schema(self, run):
        code, out, err = run("region", "--M", "3", "--N1", "2", "--N2", "1")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["constraints"] == [
            {"p": "1/3", "q": "1", "r": "1"},
            {"p": "1/2", "q": "1/3", "r": "1"},
        ]
        assert payload["vertices"] == [
            ["0", "0"],
            ["2", "0"],
            ["12/7", "3/7"],
            ["0", "1"],
        ]

    def test_quality_flags(self, run):
        code, out, _ = run(
            "region", "--M", "2", "--N1", "1", "--N2", "1",
            "--alpha1", "1/2", "--alpha2", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["constraints"] == [
            {"p": "2/3", "q": "1", "r": "1"},
            {"p": "1", "q": "2/3", "r": "1"},
        ]


class TestCorners:
    def test_json(self, run):
        code, out, _ = run("corners", "--M", "3", "--N1", "2", "--N2", "1")
        assert code == 0
        assert json.loads(out) == {
            "vertices": [["0", "0"], ["2", "0"], ["12/7", "3/7"], ["0", "1"]]
        }

    def test_csv(self, run):
        code, out, _ = run(
            "corners", "--M", "3", "--N1", "2", "--N2", "1", "--format", "csv"
        )
        assert code == 0
        assert out == "d1,d2\n0,0\n2,0\n12/7,3/7\n0,1\n"


class TestCompare:
    def test_nesting_verdicts(self, run):
        code, out, _ = run(
            "compare", "--M", "2", "--N1", "1", "--N2", "1",
            "--alpha1", "1/2", "--alpha2", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"no_csit", "configured", "perfect_delayed", "nested"}
        assert payload["nested"] == {
            "no_csit_within_configured": True,
            "configured_within_perfect_delayed": True,
        }
        assert payload["configured"]["vertices"] == [
            ["0", "0"],
            ["1", "0"],
            ["3/5", "3/5"],
            ["0", "1"],
        ]


class TestPlan:
    def test_golden_plan(self, run):
        code, out, _ = run(
            "plan", "--M", "3", "--N1", "2", "--N2", "1", "--weight", "4/5"
        )
        assert code == 0
        assert json.loads(out) == {
            "weight": "4/5",
            "tau": [4, 1, 2],
            "s1_count": 12,
            "s2_count": 3,
            "integer_scale": 5,
            "decoding": {"ok": True, "slack1": 0, "slack2": 0},
            "payload": {
                "k1_needed": 4,
                "k2_needed": 2,
                "length": 4,
                "per_slot_streams": 2,
            },
            "dof": ["12/7", "3/7"],
        }

    def test_at_corner(self, run):
        code, out, _ = run(
            "plan", "--M", "3", "--N1", "2", "--N2", "1", "--at-corner"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == "4/5"
        assert payload["dof"] == ["12/7", "3/7"]

    def test_tdma_dispatch(self, run):
        code, out, _ = run(
            "plan", "--M", "2", "--N1", "1", "--N2", "2", "--weight", "1/2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tau"] == [1, 1, 0]
        assert payload["dof"] == ["1/2", "1"]


class TestSimulate:
    BASE = (
        "simulate", "--M", "2", "--N1", "1", "--N2", "1",
        "--snr-min", "10", "--snr-max", "30", "--snr-step", "10",
        "--trials", "3", "--seed", "1",
    )

    def test_rate_json(self, run):
        code, out, _ = run(*self.BASE, "--fidelity", "rate")
        assert code == 0
        payload = json.loads(out)
        assert payload["snr_db"] == [10.0, 20.0, 30.0]
        assert payload["trials"] == 3
        assert payload["rank_check"] is None
        assert len(payload["rate_bits_per_slot"]["rx1"]) == 3

    def test_both_adds_rank_tally(self, run):
        code, out, _ = run(*self.BASE, "--fidelity", "both")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank_check"] == {"rx1_passes": 3, "rx2_passes": 3, "trials": 3}

    def test_rank_fidelity(self, run):
        code, out, _ = run(*self.BASE, "--fidelity", "rank")
        assert code == 0
        payload = json.loads(out)
        assert payload["plan"]["tau"] == [1, 1, 1]
        assert payload["rank_check"]["trials"] == 3

    def test_csv_stdout(self, run):
        code, out, _ = run(*self.BASE, "--fidelity", "rate", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "snr_db,rx,rate_bits_per_slot,trials"
        assert len(lines) == 1 + 6

    def test_deterministic(self, run):
        _, first, _ = run(*self.BASE, "--fidelity", "rate")
        _, second, _ = run(*self.BASE, "--fidelity", "rate")
        assert first == second

    @pytest.mark.parametrize("out", [None, "report.csv"])
    def test_rank_fidelity_refuses_csv(self, run, tmp_path, out):
        """A rank-only run has no rate table: ``--format csv`` is refused
        before anything is computed or written."""
        argv = [*self.BASE, "--fidelity", "rank", "--format", "csv"]
        if out is not None:
            argv += ["--out", str(tmp_path / out)]
        assert run(*argv) == (3, "", "E:INVALID_CONFIG:--format csv writes rates, "
                                     "and --fidelity rank computes none\n")
        assert list(tmp_path.iterdir()) == []

    def test_rank_fidelity_out_writes_one_json_file(self, run, tmp_path):
        target = tmp_path / "rank.json"
        code, out, _ = run(*self.BASE, "--fidelity", "rank", "--out", str(target))
        assert (code, out) == (0, "")
        assert [path.name for path in tmp_path.iterdir()] == ["rank.json"]
        assert json.loads(target.read_text())["rank_check"]["trials"] == 3

    def test_out_writes_csv_and_json(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(*self.BASE, "--fidelity", "rate", "--out", str(target))
        assert code == 0 and out == ""
        json_text = (tmp_path / "report.json").read_text()
        csv_text = (tmp_path / "report.csv").read_text()
        assert json.loads(json_text)["trials"] == 3
        assert csv_text.startswith("snr_db,rx,rate_bits_per_slot,trials\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["report.csv", "report.json"]

    def test_seed_env_fallback(self, run, monkeypatch):
        base = (
            "simulate", "--M", "2", "--N1", "1", "--N2", "1",
            "--snr-min", "10", "--snr-max", "20", "--snr-step", "10",
            "--trials", "2", "--fidelity", "rate",
        )
        monkeypatch.setenv("DOFLAB_SEED", "77")
        _, from_env, _ = run(*base)
        _, from_flag, _ = run(*base, "--seed", "77")
        _, other, _ = run(*base, "--seed", "78")
        assert from_env == from_flag
        assert from_env != other

    def test_invalid_env_seed(self, run, monkeypatch):
        monkeypatch.setenv("DOFLAB_SEED", "not-a-number")
        code, _, err = run(
            "simulate", "--M", "2", "--N1", "1", "--N2", "1",
            "--snr-min", "10", "--snr-max", "20", "--snr-step", "10",
            "--trials", "1", "--fidelity", "rate",
        )
        assert code == 3
        assert err.startswith("E:INVALID_SEED:")

    def test_negative_seed(self, run, monkeypatch):
        base = (
            "simulate", "--M", "2", "--N1", "1", "--N2", "1",
            "--snr-min", "10", "--snr-max", "20", "--snr-step", "10",
            "--trials", "1", "--fidelity", "rate",
        )
        code, out, err = run(*base, "--seed", "-1")
        assert (code, out) == (3, "")
        assert err.startswith("E:INVALID_SEED:--seed must be a non-negative integer")
        monkeypatch.setenv("DOFLAB_SEED", "-4")
        code, out, err = run(*base)
        assert (code, out) == (3, "")
        assert err.startswith("E:INVALID_SEED:DOFLAB_SEED must be a non-negative integer")

    @pytest.mark.parametrize("text", ["1e3", "10/2", "5.0", "1_000", "abc",
                                      pytest.param("1" * 1001, id="1001-digits")])
    def test_seed_flag_and_env_share_one_rule(self, run, monkeypatch, text):
        base = (
            "simulate", "--M", "2", "--N1", "1", "--N2", "1",
            "--snr-min", "10", "--snr-max", "20", "--snr-step", "10",
            "--trials", "1", "--fidelity", "rate",
        )
        assert run(*base, f"--seed={text}") == (
            3, "", f"E:INVALID_SEED:--seed is not an integer: {text!r}\n")
        monkeypatch.setenv("DOFLAB_SEED", text)
        assert run(*base) == (3, "", f"E:INVALID_SEED:DOFLAB_SEED is not an integer: {text!r}\n")

    GOLDEN = (
        "simulate", "--M", "3", "--N1", "2", "--N2", "1", "--alpha1", "1/2", "--alpha2", "1/3",
        "--at-corner", "--snr-min", "20", "--snr-max", "40", "--snr-step", "10",
        "--trials", "3", "--seed", "7",
    )

    GOLDEN_RATE_CSV = (
        "snr_db,rx,rate_bits_per_slot,trials\n"
        "20.0,1,9.682383305985734,3\n"
        "20.0,2,0.766582903430891,3\n"
        "30.0,1,15.113184156390872,3\n"
        "30.0,2,1.1839516860635,3\n"
        "40.0,1,20.514877620836884,3\n"
        "40.0,2,1.6233425175851066,3\n"
    )
    GOLDEN_BOTH_JSON = (
        '{\n'
        '  "snr_db": [\n'
        '    20.0,\n'
        '    30.0,\n'
        '    40.0\n'
        '  ],\n'
        '  "rate_bits_per_slot": {\n'
        '    "rx1": [\n'
        '      9.682383305985734,\n'
        '      15.113184156390872,\n'
        '      20.514877620836884\n'
        '    ],\n'
        '    "rx2": [\n'
        '      0.766582903430891,\n'
        '      1.1839516860635,\n'
        '      1.6233425175851066\n'
        '    ]\n'
        '  },\n'
        '  "slope": {\n'
        '    "rx1": 1.6260717601803385,\n'
        '    "rx2": 0.13226982010774227\n'
        '  },\n'
        '  "trials": 3,\n'
        '  "backend": "numpy",\n'
        '  "rank_check": {\n'
        '    "rx1_passes": 3,\n'
        '    "rx2_passes": 3,\n'
        '    "trials": 3\n'
        '  }\n'
        '}\n'
    )

    def test_golden_rate_csv(self, run):
        code, out, _ = run(*self.GOLDEN, "--fidelity", "rate", "--format", "csv")
        assert code == 0
        assert out == self.GOLDEN_RATE_CSV

    def test_golden_both_json(self, run):
        assert run(*self.GOLDEN, "--fidelity", "both") == (0, self.GOLDEN_BOTH_JSON, "")

    def test_golden_out_pair(self, run, tmp_path):
        # --out writes the CSV and the JSON of the same report, whatever --format says
        code, out, err = run(*self.GOLDEN, "--fidelity", "both", "--format", "csv",
                             "--out", str(tmp_path / "golden.txt"))
        assert (code, out, err) == (0, "", "")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["golden.csv", "golden.json"]
        assert (tmp_path / "golden.csv").read_text() == self.GOLDEN_RATE_CSV
        assert (tmp_path / "golden.json").read_text() == self.GOLDEN_BOTH_JSON

    def test_golden_rank_json(self, run):
        code, out, _ = run(*self.GOLDEN, "--fidelity", "rank")
        assert code == 0
        assert out == (
            '{\n'
            '  "plan": {\n'
            '    "weight": "6/7",\n'
            '    "tau": [\n'
            '      6,\n'
            '      1,\n'
            '      1\n'
            '    ],\n'
            '    "s1_count": 14,\n'
            '    "s2_count": 2,\n'
            '    "integer_scale": 7,\n'
            '    "decoding": {\n'
            '      "ok": true,\n'
            '      "slack1": 0,\n'
            '      "slack2": 0\n'
            '    },\n'
            '    "payload": {\n'
            '      "k1_needed": 2,\n'
            '      "k2_needed": 1,\n'
            '      "length": 2,\n'
            '      "per_slot_streams": 2\n'
            '    },\n'
            '    "dof": [\n'
            '      "7/4",\n'
            '      "1/4"\n'
            '    ]\n'
            '  },\n'
            '  "rank_check": {\n'
            '    "rx1_passes": 3,\n'
            '    "rx2_passes": 3,\n'
            '    "trials": 3\n'
            '  }\n'
            '}\n'
        )

    def test_bad_snr_grid(self, run):
        code, _, err = run(
            "simulate", "--M", "2", "--N1", "1", "--N2", "1",
            "--snr-min", "30", "--snr-max", "30", "--snr-step", "10",
        )
        assert code == 3
        assert err.startswith("E:INVALID_SNR_GRID:")

    @pytest.mark.parametrize(
        "grid",
        [
            ("30", "60", "0"),
            ("30", "60", "-5"),
            ("30", "60", "-0.0"),
            ("30", "60", "nan"),
            ("30", "60", "inf"),
            ("30", "inf", "5"),
            ("nan", "60", "5"),
            ("0", "1e9", "1e-9"),
            ("-1e308", "1e308", "1"),
            ("1e20", "1.0000000000001e20", "1"),
            # rho = 10**(snr/10) overflows above about 3082 dB, and is 0
            # below about -3236 dB
            ("30", "4030", "1000"),
            ("-4000", "30", "1000"),
            # points 1e-7 dB apart round to six copies of 30.0 and five of
            # 30.000001
            ("30", "30.000001", "1e-7"),
        ],
    )
    @needs_alarm
    def test_snr_grid_rejected_in_bounded_time(self, run, grid):
        snr_min, snr_max, step = grid
        with within(5.0):
            code, out, err = run(
                "simulate", "--M", "2", "--N1", "1", "--N2", "1", "--trials", "1",
                f"--snr-min={snr_min}", f"--snr-max={snr_max}", f"--snr-step={step}",
            )
        assert code == 3 and out == ""
        assert err.startswith("E:INVALID_SNR_GRID:")

    @needs_alarm
    def test_snr_grid_points(self, run):
        with within(30.0):
            code, out, _ = run(
                *self.BASE[:7], "--snr-min", "10", "--snr-max", "11", "--snr-step", "0.25",
                "--trials", "1", "--fidelity", "rate",
            )
        assert code == 0
        assert json.loads(out)["snr_db"] == [10.0, 10.25, 10.5, 10.75, 11.0]

    @pytest.mark.parametrize("fidelity", ["rate", "rank"])
    @pytest.mark.parametrize("alpha1", ["1e-30", "999/1000"])
    @needs_alarm
    def test_plan_too_large(self, run, fidelity, alpha1):
        # tau2 = 4e30 slots, and about 650 GB per (trial, SNR) pair
        with within(5.0):
            code, out, err = run(
                "simulate", "--M", "5", "--N1", "3", "--N2", "2", "--alpha1", alpha1,
                "--alpha2", "1/3", "--at-corner", "--trials", "1", "--fidelity", fidelity,
            )
        assert code == 3 and out == ""
        assert err.startswith("E:PLAN_TOO_LARGE:")

    @pytest.mark.parametrize("fidelity", ["rate", "rank"])
    @needs_alarm
    def test_plan_too_large_at_the_digit_limit(self, run, fidelity):
        # qualities and weight of DIGIT_LIMIT digits give taus of 2000 to
        # 3000 digits, and sizes of more digits than Python prints
        big = 10**rational.DIGIT_LIMIT
        with within(5.0):
            code, out, err = run(
                "simulate", "--M", "5", "--N1", "3", "--N2", "2",
                "--alpha1", f"{big - 2}/{big - 1}", "--alpha2", f"{big - 3}/{big - 2}",
                "--weight", f"{big - 3}/{big - 1}", "--trials", "1", "--fidelity", fidelity,
            )
        assert (code, out) == (3, "")
        assert err.startswith("E:PLAN_TOO_LARGE:plan with tau ")
        unit = {"rate": r"\(trial, SNR\) pair", "rank": "trial's rank working set"}[fidelity]
        assert re.search(rf"\] needs over 2\*\*\d+ bytes per {unit}; the cap is 1 GiB\n\Z", err)
        # taus of more than 20 digits are stated by their digit counts
        assert err.startswith("E:PLAN_TOO_LARGE:plan with tau [<3000 digits>, <2000 digits>, "
                              "<3000 digits>] ")
        assert len(err) < 300

    @needs_alarm
    def test_rank_capped_by_its_own_working_set(self, run):
        # weight 1/3000: 2999 phase-three slots, whose rate working set per
        # (trial, SNR) pair passes the cap; the rank fidelity builds only
        # its own, per trial, which fits
        config = ("simulate", "--M", "4", "--N1", "1", "--N2", "1", "--weight", "1/3000",
                  "--trials", "3", "--fidelity")
        with within(10.0):
            code, out, err = run(*config, "rank")
        assert (code, err) == (0, "")
        assert json.loads(out)["rank_check"] == {"rx1_passes": 3, "rx2_passes": 3, "trials": 3}
        with within(5.0):
            code, out, err = run(*config, "rate")
        assert (code, out) == (3, "")
        assert err.endswith("per (trial, SNR) pair; the cap is 1 GiB\n")

    @needs_alarm
    def test_too_many_trials(self, run):
        # 10**10 trials x 7 SNR points of per-pair rates would need 1 TB
        with within(5.0):
            code, out, err = run("simulate", "--M", "2", "--N1", "1", "--N2", "1",
                                 "--fidelity", "rate", "--trials", "10000000000")
        assert code == 3 and out == ""
        assert err.startswith("E:PLAN_TOO_LARGE:10000000000 trials at 7 SNR points need over ")

    @pytest.mark.parametrize("fidelity, message", [
        ("rank", "1000000000000 trials are more than 33554432, the most the rate fidelity "
                 "takes at two SNR points\n"),
        # the rate fidelity runs first, and refuses the count with its own message
        ("both", "1000000000000 trials at 7 SNR points need over "),
    ])
    @needs_alarm
    def test_too_many_rank_trials(self, run, fidelity, message):
        with within(5.0):
            code, out, err = run("simulate", "--M", "2", "--N1", "1", "--N2", "1",
                                 "--fidelity", fidelity, "--trials", "1000000000000")
        assert (code, out) == (3, "")
        assert err.startswith("E:PLAN_TOO_LARGE:" + message)

    @needs_alarm
    def test_gram_overflow(self, run):
        # where the rate Gram matrix once overflowed, the SNR limit rejects
        # the grid before anything is drawn
        with within(5.0):
            code, out, err = run(*OVERFLOWING_SNR)
        assert code == 3 and out == ""
        assert "Traceback" not in err
        assert err.startswith("E:INVALID_SNR_GRID:SNR 3080.0 dB is above 254.8 dB")

    @needs_alarm
    def test_snr_limit_names_its_value(self, run):
        # just above and at the limit of M=2, N1=N2=1, alpha = 1
        base = ("simulate", "--M", "2", "--N1", "1", "--N2", "1", "--at-corner", "--trials", "1",
                "--snr-min", "200", "--snr-step", "10")
        with within(5.0):
            code, out, err = run(*base, "--snr-max", "260")
        assert code == 3 and out == ""
        assert err == (
            "E:INVALID_SNR_GRID:SNR 260.0 dB is above 254.8 dB, the highest at which this "
            "plan's rates keep rounding errors within 0.001 "
            "(see doflab.simulate.rate_snr_limit_db)\n"
        )
        with within(5.0):
            code, out, _ = run(*base, "--snr-max", "250", "--fidelity", "rate")
        assert code == 0 and json.loads(out)["snr_db"][-1] == 250.0
        # the rank fidelity does not depend on SNR
        with within(5.0):
            code, out, _ = run(*base, "--snr-max", "3000", "--snr-step", "1000",
                               "--fidelity", "rank")
        assert code == 0 and json.loads(out)["rank_check"]["trials"] == 1

    @needs_alarm
    def test_zero_quality_has_no_snr_limit(self, run):
        # alpha = 0 quantizes nothing and its corner plan has no phase three:
        # rates stay right up to the largest finite rho
        with within(5.0):
            code, out, err = run(
                *OVERFLOWING_SNR, "--alpha1", "0", "--alpha2", "0", "--at-corner",
                "--fidelity", "rate",
            )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["slope"]["rx1"] == pytest.approx(0.5, abs=1e-9)
        assert payload["slope"]["rx2"] == pytest.approx(0.5, abs=1e-9)

    @needs_alarm
    def test_covariance_not_positive_definite_at_extreme_snr(self, run):
        # a fractional-alpha plan within the SNR limit (424.6 dB): rounding
        # costs the phase-three covariance S its positive definiteness from
        # about 330 dB, after a clean run at 320 dB
        with within(5.0):
            code, out, err = run(
                "simulate", "--M", "5", "--N1", "3", "--N2", "2", "--alpha1", "1/2",
                "--alpha2", "1/3", "--at-corner", "--snr-min", "320", "--snr-max", "330",
                "--snr-step", "10", "--trials", "4", "--seed", "1",
            )
        assert code == 3 and out == ""
        assert err == (
            "E:SINGULAR_COVARIANCE:trial 0, SNR 330.0 dB: noise covariance is not positive "
            "definite\n"
        )


class TestSweepAlpha:
    def test_corner_values(self, run):
        code, out, _ = run(
            "sweep-alpha", "--M", "2", "--N1", "1", "--N2", "1",
            "--alphas", "0,1/2,1",
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [e["alpha"] for e in entries] == ["0", "1/2", "1"]
        assert [e["corner"] for e in entries] == [
            ["1/2", "1/2"],
            ["3/5", "3/5"],
            ["2/3", "2/3"],
        ]

    def test_csv_vertices(self, run):
        code, out, _ = run(
            "sweep-alpha", "--M", "2", "--N1", "1", "--N2", "1",
            "--alphas", "1", "--format", "csv",
        )
        assert code == 0
        assert out == (
            "alpha,vertex_index,d1,d2\n"
            "1,0,0,0\n"
            "1,1,1,0\n"
            "1,2,2/3,2/3\n"
            "1,3,0,1\n"
        )


    @pytest.mark.parametrize("alphas, message", [
        ("0,abc", "alpha1 is not a rational: 'abc'"),
        ("0,1.5", "alpha1 must lie in [0, 1], got 1.5"),
        (" , ,", "empty alpha list"),
    ])
    def test_bad_alpha_list(self, run, alphas, message):
        """Each quality is checked by SystemConfig, which names it alpha1;
        nothing is printed before the whole list is checked."""
        assert run("sweep-alpha", "--M", "2", "--N1", "1", "--N2", "1",
                   "--alphas", alphas) == (3, "", f"E:INVALID_ALPHA:{message}\n")


class TestSweepPairs:
    def test_increasing_second_user_quality(self, run):
        code, out, _ = run(
            "sweep-pairs", "--M", "2", "--N1", "1", "--N2", "1",
            "--pairs", "1:0,1:1/2,1:1",
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [e["corner"] for e in entries] == [
            ["1", "0"],
            ["3/4", "1/2"],
            ["2/3", "2/3"],
        ]
        d2s = [eval_fraction(e["corner"][1]) for e in entries]
        assert d2s == sorted(set(d2s))

    def test_csv(self, run):
        code, out, _ = run(
            "sweep-pairs", "--M", "2", "--N1", "1", "--N2", "1",
            "--pairs", "1:1", "--format", "csv",
        )
        assert code == 0
        assert out == "alpha1,alpha2,d1,d2\n1,1,2/3,2/3\n"

    def test_malformed_pair(self, run):
        code, _, err = run(
            "sweep-pairs", "--M", "2", "--N1", "1", "--N2", "1", "--pairs", "1;0"
        )
        assert code == 3
        assert err.startswith("E:INVALID_ALPHA:")

    @pytest.mark.parametrize("pairs, message", [
        ("1:0,1:abc", "alpha2 is not a rational: 'abc'"),
        ("1:0,3/2:1", "alpha1 must lie in [0, 1], got 3/2"),
        (",,", "empty pair list"),
    ])
    def test_bad_pair_list(self, run, pairs, message):
        assert run("sweep-pairs", "--M", "2", "--N1", "1", "--N2", "1",
                   "--pairs", pairs) == (3, "", f"E:INVALID_ALPHA:{message}\n")


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


class TestErrors:
    def test_alpha_out_of_range(self, run):
        code, out, err = run(
            "region", "--M", "2", "--N1", "1", "--N2", "1", "--alpha1", "3/2"
        )
        assert code == 3 and out == ""
        assert err.startswith("E:INVALID_ALPHA:")

    def test_alpha_not_rational(self, run):
        code, _, err = run(
            "region", "--M", "2", "--N1", "1", "--N2", "1", "--alpha1", "abc"
        )
        assert code == 3
        assert err.startswith("E:INVALID_ALPHA:")

    def test_bad_antennas(self, run):
        code, _, err = run("region", "--M", "0", "--N1", "1", "--N2", "1")
        assert code == 3
        assert err.startswith("E:INVALID_CONFIG:")

    def test_invalid_weight(self, run):
        code, _, err = run(
            "plan", "--M", "2", "--N1", "1", "--N2", "1", "--weight", "3/2"
        )
        assert code == 3
        assert err.startswith("E:INVALID_WEIGHT:")

    @pytest.mark.parametrize("n", ["1", "2"], ids=["three-phase", "tdma"])
    def test_weight_is_parsed_by_the_planner(self, run, n):
        argv = ("plan", "--M", "2", "--N1", n, "--N2", n)
        assert run(*argv, "--weight", "huh") == (
            3, "", "E:INVALID_WEIGHT:weight is not a rational: 'huh'\n")
        assert run(*argv, "--weight", " 1.5 ") == (
            3, "", "E:INVALID_WEIGHT:weight must lie in [0, 1], got 3/2\n")
        code, _, err = run(
            "plan", "--M", "2", "--N1", "1", "--N2", "1", "--weight", "huh"
        )
        assert code == 3
        assert err == "E:INVALID_WEIGHT:weight is not a rational: 'huh'\n"

    @needs_alarm
    @pytest.mark.parametrize("command", ["region", "corners", "sweep-pairs", "plan"])
    def test_rationals_at_the_digit_limit(self, run, command):
        """Qualities and weights of DIGIT_LIMIT-digit numerators and
        denominators print in full; one digit more exits 3 at once."""
        limit = rational.DIGIT_LIMIT
        big = 10**limit - 1  # limit digits, as are big - 1 and big - 2
        at = {"alpha1": f"{big - 1}/{big}", "alpha2": f"{big - 2}/{big - 1}",
              "weight": f"{big - 2}/{big}"}
        over = {"alpha1": f"1/{10 * big}", "alpha2": f"1e-{limit}", "weight": "1e-10000000"}

        def argv(values):
            base = [command, "--M", "5", "--N1", "3", "--N2", "2"]
            if command == "sweep-pairs":
                return base + ["--pairs", f"1:0,{values['alpha1']}:{values['alpha2']}"]
            base += ["--alpha1", values["alpha1"], "--alpha2", values["alpha2"]]
            return base + (["--weight", values["weight"]] if command == "plan" else [])

        with within(5.0):
            code, out, err = run(*argv(at))
        assert (code, err) == (0, "")
        numbers = [F(x) for x in re.findall(r"-?\d+(?:/\d+)?", out)]
        assert max(len(str(abs(x.numerator))) for x in numbers) > 2 * limit - 5
        for name, value in over.items():
            if name == "weight" and command != "plan":
                continue
            with within(1.0):
                code, out, err = run(*argv({**at, name: value}))
            code_name = "INVALID_WEIGHT" if name == "weight" else "INVALID_ALPHA"
            assert (code, out) == (3, "")
            assert err == f"E:{code_name}:{name} is a rational of more than {limit} digits\n"

    @pytest.mark.parametrize(
        "command", ["region", "corners", "compare", "plan", "sweep-alpha", "sweep-pairs", "simulate"]
    )
    @needs_alarm
    def test_antennas_at_the_cap(self, run, command):
        """At MAX_ANTENNAS, with qualities and weights at the digit limit,
        every geometry command prints its numbers in full and simulate
        refuses the plan's size; one antenna more exits 3 at once."""
        cap = cli.MAX_ANTENNAS
        big = 10**rational.DIGIT_LIMIT - 1
        alpha1, alpha2 = f"{big - 1}/{big}", f"{big - 2}/{big - 1}"
        if command == "simulate":
            alpha1, alpha2 = "1/3", "2/7"

        def argv(m, n1, n2):
            base = [command, "--M", str(m), "--N1", str(n1), "--N2", str(n2)]
            if command == "sweep-alpha":
                return base + ["--alphas", f"0,{alpha1},1"]
            if command == "sweep-pairs":
                return base + ["--pairs", f"1:0,{alpha1}:{alpha2}"]
            base += ["--alpha1", alpha1, "--alpha2", alpha2]
            if command == "plan":
                return base + ["--weight", f"{big - 2}/{big}"]
            return base + (["--trials", "1"] if command == "simulate" else [])

        at = (cap, cap // 2 + 3, cap // 2 - 5)
        with within(5.0):
            code, out, err = run(*argv(*at))
        if command == "simulate":
            assert (code, out) == (3, "") and err.startswith("E:PLAN_TOO_LARGE:plan with tau ")
        else:
            assert (code, err) == (0, "")
            numbers = [F(x) for x in re.findall(r"-?\d+(?:/\d+)?", out)]
            assert max(len(str(abs(x.numerator))) for x in numbers) > 2 * cli.ANTENNA_DIGITS
        for index, name in enumerate(("M", "N1", "N2")):
            over = list(at)
            over[index] = cap + 1
            with within(1.0):
                assert run(*argv(*over)) == (
                    3, "", f"E:TOO_MANY_ANTENNAS:--{name} is above the cap of 10**300 antennas\n"
                )

    @pytest.mark.parametrize(
        "error, code",
        [
            (errors.DoflabError, "DOMAIN_ERROR"),
            (errors.DegenerateCorner, "DEGENERATE_CORNER"),
            (errors.UnboundedRegion, "UNBOUNDED_REGION"),
            (errors.WrongCase, "WRONG_CASE"),
            (errors.InvalidWeight, "INVALID_WEIGHT"),
            (errors.InfeasiblePlan, "INFEASIBLE_PLAN"),
            (errors.AntennaOverflow, "ANTENNA_OVERFLOW"),
            (errors.ShapeMismatch, "SHAPE_MISMATCH"),
            (errors.SingularCovariance, "SINGULAR_COVARIANCE"),
            (errors.GramOverflow, "GRAM_OVERFLOW"),
            (errors.PlanTooLarge, "PLAN_TOO_LARGE"),
            (errors.TooManyAntennas, "TOO_MANY_ANTENNAS"),
            (errors.InvalidConfig, "INVALID_CONFIG"),
            (errors.InvalidAlpha, "INVALID_ALPHA"),
            (errors.InvalidSeed, "INVALID_SEED"),
            (errors.InvalidSnrGrid, "INVALID_SNR_GRID"),
            (errors.OutputError, "OUTPUT_ERROR"),
        ],
    )
    def test_code_of_each_error_type(self, run, monkeypatch, error, code):
        def fail(args):
            raise error("what went wrong")

        monkeypatch.setattr(cli, "cmd_region", fail)
        assert run("region", "--M", "2", "--N1", "1", "--N2", "1") == (
            3, "", f"E:{code}:what went wrong\n"
        )

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: doflab.SystemConfig(0, 1, 1), errors.InvalidConfig,
             "m must be a positive integer, got 0"),
            (lambda: doflab.SimParams((30.0,)), errors.InvalidSnrGrid,
             "need at least two SNR points"),
            (lambda: doflab.SimParams((30.0, 40.0), trials=0), errors.InvalidConfig,
             "trials must be positive"),
            (lambda: doflab.SystemConfig(2, 1, 1, "abc"), errors.InvalidAlpha,
             "alpha1 is not a rational: 'abc'"),
            (lambda: doflab.SystemConfig(2, 1, 1, "3/2"), errors.InvalidAlpha,
             "alpha1 must lie in [0, 1], got 3/2"),
            # the range message shows the quality as it was given
            (lambda: doflab.SystemConfig(2, 1, 1, "1.5"), errors.InvalidAlpha,
             "alpha1 must lie in [0, 1], got 1.5"),
            (lambda: doflab.SystemConfig(2, 1, 1).with_quality("abc", 1), errors.InvalidAlpha,
             "alpha1 is not a rational: 'abc'"),
            (lambda: doflab.plan_schedule(doflab.SystemConfig(2, 1, 1), "huh"),
             errors.InvalidWeight, "weight is not a rational: 'huh'"),
            (lambda: doflab.plan_tdma(doflab.SystemConfig(2, 1, 1), "huh"),
             errors.InvalidWeight, "weight is not a rational: 'huh'"),
            (lambda: doflab.plan_schedule(doflab.SystemConfig(2, 1, 1), "3/2"),
             errors.InvalidWeight, "weight must lie in [0, 1], got 3/2"),
            # the quantizer's non-finite quality; the geometry's are in
            # test_region's TestAsRatio
            (lambda: doflab.quantize_csit(0j, float("nan"), 1.0), errors.InvalidAlpha,
             "alpha is not a rational: nan"),
            (lambda: doflab.HalfPlane(-1, 1, 1), errors.InvalidConfig,
             "half-plane coefficients must be nonnegative"),
            (lambda: doflab.HalfPlane(0, 0, 1), errors.InvalidConfig,
             "half-plane needs a nonzero normal"),
            (lambda: doflab.HalfPlane.from_intercepts(0, 1), errors.InvalidConfig,
             "intercepts must be positive"),
            (lambda: doflab.DofRegion.from_json_dict({"constraints": [{"p": "-1", "q": "1", "r": "1"}]}),
             errors.InvalidConfig, "half-plane coefficients must be nonnegative"),
            (lambda: doflab.SchedulePlan(-1, 1, 1, 2, 2), errors.InvalidConfig,
             "tau1 must be nonnegative"),
            (lambda: doflab.SchedulePlan(0, 0, 0, 0, 0), errors.InvalidConfig, "empty schedule"),
            (lambda: doflab.SchedulePlan(1, 1, 1, 2, 2, integer_scale=0), errors.InvalidConfig,
             "integer_scale must be positive"),
            # a plan's fields are counts of slots and symbols: integers, not
            # floats that happen to be whole, and not bools
            (lambda: doflab.SchedulePlan(1.5, 1, 1, 2, 2), errors.InvalidConfig,
             "tau1 must be an integer, got 1.5"),
            (lambda: doflab.SchedulePlan(True, 1, 1, 2, 2), errors.InvalidConfig,
             "tau1 must be an integer, got True"),
            (lambda: doflab.SchedulePlan(1, 1, 1, 2, 2, integer_scale=2.0), errors.InvalidConfig,
             "integer_scale must be an integer, got 2.0"),
            (lambda: doflab.SchedulePlan.from_durations(doflab.SystemConfig(3, 2, 1, "1/2", "1/2"), 1, 0, 1),
             errors.InvalidConfig, "fractional stream totals; scale the durations first"),
        ],
        ids=["no-antennas", "one-snr-point", "no-trials", "alpha-not-rational",
             "alpha-above-one", "alpha-above-one-as-given", "with-quality-not-rational",
             "schedule-weight-not-rational", "tdma-weight-not-rational",
             "weight-above-one", "quantizer-quality-nan",
             "coefficient-negative", "normal-zero", "intercept-zero", "json-coefficient-negative",
             "tau-negative", "schedule-empty", "scale-zero", "tau-float", "tau-bool",
             "scale-float", "stream-totals-fractional"],
    )
    def test_invalid_input_is_typed_and_a_value_error(self, build, error, message):
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is error and isinstance(info.value, errors.DoflabError)
        assert str(info.value) == message

    def test_stray_value_error_propagates(self, run, monkeypatch, capsys):
        """A ValueError that is not a DoflabError is a programming error:
        main lets it surface and prints no error code."""

        def fail(args):
            raise ValueError("a bug, not an input")

        monkeypatch.setattr(cli, "cmd_region", fail)
        with pytest.raises(ValueError, match="^a bug, not an input$"):
            run("region", "--M", "2", "--N1", "1", "--N2", "1")
        assert capsys.readouterr() == ("", "")

    def test_readme_names_each_error_type_with_its_code(self):
        paragraph = next(part for part in README.read_text().split("\n\n")
                         if part.startswith("Each domain error type carries its code"))
        named = dict(re.findall(r"`(\w+)`\s+\(`([A-Z_]+)`\)", paragraph))
        types = {name: value.code for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, errors.DoflabError)}
        assert named == types

    @pytest.mark.parametrize(
        "argv",
        [
            ("region", "--M", "2", "--N1", "1", "--N2", "1"),
            ("simulate", "--M", "2", "--N1", "1", "--N2", "1", "--snr-min", "10",
             "--snr-max", "20", "--snr-step", "10", "--trials", "1", "--fidelity", "rate"),
        ],
        ids=["region", "simulate"],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "is-a-dir", ".", "./", "/"])
    def test_unwritable_out(self, run, tmp_path, monkeypatch, argv, target):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "x.json"
        if target == "missing-dir":
            out = tmp_path / "missing" / "x.json"
        elif target == "is-a-dir":
            # simulate writes x.csv, then x.json
            for name in ("x.csv", "x.json"):
                (tmp_path / name).mkdir()
        else:
            # a path with no file name
            out = target
        code, stdout, err = run(*argv, "--out", str(out))
        written = out if argv[0] == "region" or out == target else out.with_suffix(".csv")
        assert (code, stdout) == (3, "")
        assert err.startswith(f"E:OUTPUT_ERROR:cannot write {written}: ")
        assert err.count("\n") == 1
        assert not any(tmp_path.glob(".*.tmp"))

    def test_simulate_out_writes_both_files_or_neither(self, run, tmp_path):
        # x.csv could be written, x.json cannot
        (tmp_path / "x.json").mkdir()
        code, stdout, err = run("simulate", "--M", "2", "--N1", "1", "--N2", "1", "--trials", "2",
                                "--fidelity", "rate", "--out", str(tmp_path / "x"))
        assert (code, stdout) == (3, "")
        assert err.startswith(f"E:OUTPUT_ERROR:cannot write {tmp_path / 'x.json'}: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["x.json"]
        assert not any((tmp_path / "x.json").iterdir())

    def test_usage_error_exit_two(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--M", "2", "--N1", "1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_fidelity_exit_two(self, run, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["simulate", "--M", "2", "--N1", "1", "--N2", "1",
                 "--fidelity", "bogus"]
            )
        assert exc.value.code == 2
        capsys.readouterr()

    def test_process_exit_codes(self, run):
        """``python -m doflab.cli`` as a real process: its exit status is
        the code ``main`` returns, or argparse's 2 for a usage error."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]))
        env.pop("DOFLAB_SEED", None)

        def process(*argv):
            done = subprocess.run([sys.executable, "-m", "doflab.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            return done.returncode, done.stdout, done.stderr

        golden = ("plan", "--M", "3", "--N1", "2", "--N2", "1", "--weight", "4/5")
        code, out, err = process(*golden)
        assert (code, err) == (0, "")
        assert out == run(*golden)[1] and json.loads(out)["tau"] == [4, 1, 2]
        assert process("plan", "--M", "2", "--N1", "1", "--N2", "1", "--weight", "huh") == (
            3, "", "E:INVALID_WEIGHT:weight is not a rational: 'huh'\n"
        )
        code, out, err = process("region", "--M", "2", "--N1", "1")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")


USAGE = ("usage: doflab [-h]\n"
         "              {region,corners,compare,plan,simulate,sweep-alpha,sweep-pairs}\n"
         "              ...\n")
CHOICES = ["region", "corners", "compare", "plan", "simulate", "sweep-alpha", "sweep-pairs"]


@pytest.mark.parametrize("argv, errors", [
    (["simulate", "--M", "2", "--N1", "1", "--N2", "1", "extra"],
     ["unrecognized arguments: extra"]),
    ([], ["the following arguments are required: command"]),
    # older argparse quotes the choices, newer argparse prints them bare
    (["bogus"], [f"argument command: invalid choice: 'bogus' (choose from {choices})"
                 for choices in (", ".join(map(repr, CHOICES)), ", ".join(CHOICES))]),
], ids=["extra-argument", "no-command", "unknown-command"])
def test_usage_errors_name_every_command(argv, errors, capsys, monkeypatch):
    """The top-level usage lists all seven commands, whichever subcommand
    ``main`` registers: byte for byte at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in [f"{USAGE}doflab: error: {error}\n" for error in errors]


CONFIG_OPTIONS = ["--M", "--N1", "--N2", "--alpha1", "--alpha2"]
OPTIONS = {
    "region": [*CONFIG_OPTIONS, "--out"],
    "corners": [*CONFIG_OPTIONS, "--out", "--format"],
    "compare": [*CONFIG_OPTIONS, "--out"],
    "plan": [*CONFIG_OPTIONS, "--weight", "--at-corner", "--out"],
    "simulate": [*CONFIG_OPTIONS, "--weight", "--at-corner", "--fidelity", "--snr-min", "--snr-max",
                 "--snr-step", "--trials", "--seed", "--out", "--format"],
    "sweep-alpha": ["--M", "--N1", "--N2", "--alphas", "--out", "--format"],
    "sweep-pairs": ["--M", "--N1", "--N2", "--pairs", "--out", "--format"],
}


@pytest.mark.parametrize("command", OPTIONS)
def test_help_lists_every_option(command, capsys):
    """``<command> --help`` lists exactly that command's options, although
    ``main`` builds only the invoked subcommand's arguments."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: doflab {command} [-h] ")
    assert set(re.findall(r"--[\w-]+", out)) == {"--help", *OPTIONS[command]}


def test_readme_cli_quick_start(run, tmp_path, monkeypatch):
    """Every ``doflab`` line of the README's CLI quick start succeeds in an
    empty directory, and together they run every subcommand."""
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("doflab ")]
    assert {argv[0] for argv in commands} == {
        "region", "corners", "compare", "plan", "simulate", "sweep-alpha", "sweep-pairs"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(*argv)
        assert (code, err) == (0, ""), argv


def test_readme_library_quick_start():
    """The README's library quick start prints, line by line, what the
    comment on each ``print`` line, or the comment line after it, shows."""
    section = README.read_text().split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].removeprefix("#")
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected


def test_geometry_commands_leave_numpy_unloaded():
    """Only ``simulate`` loads the simulator and numpy: the geometry and
    planning commands, and simulate's refusal of a rank-only CSV, run
    without them, and simulate still runs after."""
    src = Path(cli.__file__).resolve().parents[1]
    script = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from doflab import cli
config = ["--M", "3", "--N1", "2", "--N2", "1"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["region", *config], ["corners", *config], ["compare", *config],
        ["plan", *config, "--weight", "4/5"], ["sweep-alpha", *config], ["sweep-pairs", *config],
        ["simulate", *config, "--fidelity", "rank", "--format", "csv"])]
print(codes, sorted({"numpy", "doflab.simulate", "doflab.kernels"} & set(sys.modules)))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--trials", "3"])
print(code, "numpy" in sys.modules, out.getvalue().count("rx1_passes"))
"""
    done = subprocess.run([sys.executable, "-c", script, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[0, 0, 0, 0, 0, 0, 3] []\n0 True 1\n"


def mostly(good, bad):
    """A value of ``good`` at least half the time, else any of either list."""
    return st.sampled_from(good) | st.sampled_from(good + bad)


# small-denominator qualities and weights, a huge denominator, an awkward
# one, and values that are out of range or not numbers at all
RATIOS = mostly(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "1e-30", "12345/65536"],
                ["nan", "-1", "2", "abc"])
# at most five points: a valid grid simulates well within the time bound
SNR_GRIDS = st.tuples(
    mostly(["20", "30"], ["nan", "4030"]),
    mostly(["50", "60"], ["nan", "4030"]),
    mostly(["10", "15"], ["0", "-5", "nan"]),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["region", "plan", "simulate"]))
    argv = [command]
    for flag in ("--M", "--N1", "--N2"):
        argv += [flag, str(draw(mostly([1, 2, 3, 4], [0, -1])))]
    for flag in ("--alpha1", "--alpha2"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(RATIOS)}")
    if command != "region":
        if draw(st.booleans()):
            argv.append("--at-corner")
        else:
            argv.append(f"--weight={draw(RATIOS)}")
    if command == "simulate":
        snr_min, snr_max, step = draw(SNR_GRIDS)
        argv += [
            f"--trials={draw(mostly([1, 2], [-1, 0]))}",
            f"--snr-min={snr_min}",
            f"--snr-max={snr_max}",
            f"--snr-step={step}",
            f"--fidelity={draw(st.sampled_from(['rank', 'rate', 'both']))}",
        ]
    if draw(st.booleans()):
        # stdout, or paths with no file name, so that nothing is ever written
        argv.append(f"--out={draw(st.sampled_from(['-', '.', './', '/']))}")
    return argv


@needs_alarm
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
@example(argv=["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--snr-min=30",
               "--snr-max=4030", "--snr-step=1000", "--trials=1"])
@example(argv=["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--alpha1=1e-30",
               "--at-corner", "--trials=1"])
@example(argv=OVERFLOWING_SNR)
@example(argv=["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--fidelity=rate",
               "--trials=10000000000"])
@example(argv=["simulate", "--M", "2", "--N1", "1", "--N2", "1", "--fidelity=rank",
               "--trials=1000000000000"])
def test_fuzz_exits_cleanly(argv):
    """Every argv ends with exit 0, 2 or 3 within 5 s and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with within(5.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("E:")

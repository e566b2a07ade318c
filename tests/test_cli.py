"""Command-line interface: formats, determinism, resolution, exit codes."""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from decimal import Decimal
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsdr
import qsdr._streams as streams_mod
import qsdr.cli as cli
import qsdr.rootfind as rootfind_mod
from qsdr import (
    BracketError,
    ControlLaw,
    LawFamily,
    Priors,
    SingularControlError,
    simulate_adaptive,
    simulate_telegraph,
    solve_jointly,
    telegraph_chunks,
)
from qsdr.cli import main
from oracles import rk45
from test_streams import TELEGRAPH_LAWS, budget, one_chunk

FIG1_HEADER = b"gamma_sq,helstrom_pe,kennedy_pe,improved_kennedy_pe,simplified_dolinar_pe\n"
FIG3_HEADER = b"gamma_sq,kennedy_beta_sq,improved_kennedy_beta_sq,simplified_dolinar_beta_sq\n"
SIM_HEADER = b"scheme,estimate,stderr,trials,seed,analytic,z_score\n"
TRAJ_HEADER = b"trial,a,z_final,click_times\n"

# Frozen end-to-end row at gamma_sq = 0.2 (q0 = 0.5, T = 1), 12 significant
# digits as the CSV contract specifies.
ROW_AT_02 = "0.2,0.12896393845,0.224664482059,0.16302271365,0.152981466615"


def child_env():
    """Environment whose interpreters import the qsdr under test, installed or not."""
    env = dict(os.environ)
    src = str(Path(qsdr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def read_rows(path):
    lines = path.read_bytes().decode().splitlines()
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def render_trajectories(spec, trajectories) -> bytes:
    """The trajectory file as the in-memory writer of earlier releases
    rendered it from all of a run's click records at once."""
    a, z, offsets, times = (col.tolist() for col in trajectories)
    spans = enumerate(zip(a, z, offsets, offsets[1:]))
    if spec.format == "json":
        records = [
            {"trial": i, "a": ai, "z_final": zi,
             "click_times": [float(f"{t:.12g}") for t in times[lo:hi]]}
            for i, (ai, zi, lo, hi) in spans
        ]
        doc = {"spec": spec.public_dict(), "trajectories": records,
               "tool_version": qsdr.__version__, "seed": spec.seed}
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()
    lines = ["trial,a,z_final,click_times\n"]
    for i, (ai, zi, lo, hi) in spans:
        lines.append(f"{i},{ai},{zi},{';'.join(f'{t:.12g}' for t in times[lo:hi])}\n")
    return "".join(lines).encode()


class TestFig1:
    def test_frozen_row_and_header(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(
            [
                "fig1",
                "--gamma-sq-min", "0.2",
                "--gamma-sq-max", "2.0",
                "--points", "2",
                "--spacing", "linear",
                "-o", str(out),
            ]
        )
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(FIG1_HEADER)
        assert b"\r" not in data
        assert data.decode().splitlines()[1] == ROW_AT_02

    def test_quantum_bound_is_the_floor(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fig1", "--points", "6", "-o", str(out)]) == 0
        header, rows = read_rows(out)
        hcol = header.index("helstrom_pe")
        for cells in rows:
            floor = float(cells[hcol])
            for c in range(1, len(cells)):
                assert float(cells[c]) >= floor - 1e-9

    def test_strong_signal_columns_stay_above_the_bound(self, tmp_path):
        # 1 - P_c rounds to 0 here, below Helstrom's 5.5e-28 and 1.2e-105.
        out = tmp_path / "f.csv"
        argv = ["fig1", "--q0", "0.7", "--gamma-sq-min", "15.3", "--gamma-sq-max", "60",
                "--points", "2", "-o", str(out)]
        assert main(argv) == 0
        header, rows = read_rows(out)
        for row in rows:
            h, k, ik, sd = map(float, row[1:])
            assert 0.0 < h <= ik <= k and h <= sd <= k

    def test_ode_receiver_rides_the_bound(self, tmp_path):
        out = tmp_path / "f.csv"
        rc = main(
            [
                "fig1",
                "--schemes", "dolinar_ode,helstrom",  # canonical order wins
                "--q0", "0.7",
                "--points", "3",
                "-o", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == ["gamma_sq", "helstrom_pe", "dolinar_ode_pe"]
        for cells in rows:
            assert abs(float(cells[1]) - float(cells[2])) < 1e-6

    def test_both_dolinar_columns_run_the_configured_law(self, tmp_path):
        cfg = tmp_path / "law.cfg"
        cfg.write_text("beta = 1.2\n")
        out = tmp_path / "f.csv"
        argv = ["fig1", "--config", str(cfg), "--q0", "0.7", "--gamma-sq-min", "0.01",
                "--gamma-sq-max", "1", "--points", "2", "--schemes", "dolinar_ode,dolinar_mc",
                "--trials", "4000", "-o", str(out)]
        assert main(argv) == 0
        _, rows = read_rows(out)
        for _, ode, mc in rows:
            ode, mc = float(ode), float(mc)
            sigma = math.sqrt(mc * (1.0 - mc) / 4000)
            assert abs(mc - ode) <= 4.0 * sigma

    def test_monte_carlo_column_reruns_identically(self, tmp_path):
        args = [
            "fig1",
            "--schemes", "helstrom,dolinar_mc",
            "--q0", "0.7",
            "--points", "3",
            "--trials", "200",
            "--seed", "31",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header, _ = read_rows(a)
        assert header == ["gamma_sq", "helstrom_pe", "dolinar_mc_pe"]


# The benchmark's sweep workload, and the sha256 of the CSV files the
# point-by-point sweep of earlier releases wrote for it; the column-wise
# sweep must write the same bytes.
SWEEP_AXIS = ["--q0", "0.7", "--gamma-sq-min", "0.01", "--gamma-sq-max", "4"]
ANALYTIC_FIG1 = "helstrom,kennedy,improved_kennedy,simplified_dolinar,dolinar_ode"
SWEEP_ARGV = {
    "fig1": ["fig1", *SWEEP_AXIS, "--schemes", ANALYTIC_FIG1, "--points", "100"],
    "fig3": ["fig3", *SWEEP_AXIS, "--points", "300"],
}
SWEEP_SHA256 = {
    "fig1": "3bbfbbfcb1215bfa298bd2f795209a5517b10df964b2485cdf9826e6251f4ea0",
    "fig3": "276b8f117d3f2f528cf25fbff546600b935423a31bc8f83d6f32e75df59c855c",
}
# JSON outputs whose bytes, spec included, are pinned: {name: (argv, {file: sha256})}.
# The file "o" is the -o output; "t" is the --trajectories file of the run.
# The spec holds only the options the run read.
TELEGRAPH_ARGV = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                  "--trials", "20000"]
MULTICOPY_ARGV = ["simulate", "--scheme", "multicopy", "--q0", "0.7", "--theta", "0.2",
                  "--copies", "20", "--trials", "20000"]
JSON_SHA256 = {
    "fig1": (["fig1"],
             {"o": "b3fd1499a1715ab0407a3bf9ed3340de353be07fdae9e7a88e5e32eb6dd77b86"}),
    "fig3": (["fig3"],
             {"o": "d7d8045a4784a77e6962a9a3b45a9679f1f5d33b7ee5a4f989ef0212151fd23b"}),
    "sweep_fig1": (SWEEP_ARGV["fig1"],
                   {"o": "d21befa3bbf4201c907ce3b17a7d8f47853a4d5d50a0b031141f5482b372c513"}),
    "sweep_fig3": (SWEEP_ARGV["fig3"],
                   {"o": "4d6a1996e20dc7846ab27472f84a8b672a5362c374cc697c01f0dd5f94e59d85"}),
    "constant": (["fig1", "--q0", "0.7", "--schemes", "dolinar_ode", "--beta", "1.2"],
                 {"o": "6896680c5e4836ee2b55c77af0e5719d83198107b507c829e6edbcd2764a21b3"}),
    "telegraph": ([*TELEGRAPH_ARGV, "--seed", "1"],
                  {"o": "fe1f4b53961cba8e735cc657384ef6ea25d3ce12289efb86d63f0c3b8dbb9c03",
                   "t": "4e862a405e4a5366a1263d0461856b0aeaba1631b710c9f7d3f7adcf28f2a177"}),
    "multicopy": ([*MULTICOPY_ARGV, "--seed", "1"],
                  {"o": "2bf31bba8e7e19fbad638f0e54555abe5bc1a5cf19b6514334149bf85d11a5a1"}),
    "fig1_dolinar_mc": (["fig1", "--q0", "0.5", "--u-max", "8", "--schemes", "dolinar_mc",
                         "--points", "5", "--trials", "2000", "--seed", "3"],
                        {"o": "157e5abbb03cc36c7870223d60e7fa044fa7cf9e50bc3ec3986b660aafb2dd32"}),
}
# The dolinar_ode column under each law shape of TestEvolvePe.SWEEPS, as the
# per-point laws wrote it: (argv beyond LAW_SHAPE_AXIS, sha256).
LAW_SHAPE_AXIS = ["fig1", "--schemes", "dolinar_ode", "--points", "300",
                  "--gamma-sq-min", "1e-6", "--gamma-sq-max", "30"]
LAW_SHAPE_SHA256 = {
    "uncapped_and_cap_inside_T": (["--q0", "0.7", "--u-max", "1.5"],
                                  "f6312225dfed159dc1fec24cae1290fa0dbcaaf43fd473c2235d5e138d1abb5e"),
    "cap_at_or_below_psi": (["--q0", "0.2", "--T", "3", "--u-max", "1.2"],
                            "82cb07540185f6361ebe98fe92f0ab242fb6ce8f41b1e773fc43d04a2c876808"),
    "time_floor": (["--q0", "0.6", "--t-floor", "0.5", "--u-max", "2"],
                   "4043ed49a53802bbd65ebbbfef08cad2c248174e0e9e82cfd622d5b75c75e6d2"),
    "q1_zero": (["--q0", "1", "--t-floor", "0.2"],
                "ef3173d15e470a8eae183d4a49592e72977199195ac7e19f846e23c3f588481b"),
    "constant": (["--q0", "0.7", "--beta", "1.2"],
                 "8e571387384236817db08c4f45014cc95455d6721a8f2f4b0076e37b272b6826"),
    # A floor, a cap and an envelope given per second over a pulse of T = 2.5.
    "time_floor_T": (["--T", "2.5", "--q0", "0.6", "--t-floor", "0.5", "--u-max", "2"],
                     "1376ce5dfdd1de25031ada1e8893fda81476e381dad16acfbdf0460386f59d64"),
    "constant_T": (["--T", "2.5", "--q0", "0.7", "--beta", "1.2"],
                   "1cc0c1a5078a6317b4e9b6ea337b7ef85c331eabb85ee746b64e21c4e5209cd9"),
}
# The CSV files of sampler runs, as the chunk-wide sampler arrays wrote them:
# {name: (argv, {file: sha256})}, files as in JSON_SHA256.  The first is the
# benchmark's telegraph run, in the CSV it writes; the dolinar_mc runs cross
# the law shapes of LAW_SHAPE_SHA256.
SAMPLER_ARGV = ["simulate", "--scheme", "dolinar_mc", "--trials", "2000", "--seed", "3"]
SAMPLER_SHA256 = {
    "telegraph": ([*TELEGRAPH_ARGV, "--seed", "1"],
                  {"o": "7f62e5f4156324240033e9aa940f076d15f5a7bddbaf77850eac46b90de72eaf",
                   "t": "c403b817bc5c46f0f213c52e29db99c656ac209d17c9286761365a05d15d54d8"}),
    "optimal_from_0": ([*SAMPLER_ARGV, "--q0", "0.7"],
                       {"o": "d3b4feaa6432e5ada03764e4fe9915d6321279a5f9372d318b3fc9bd17e05a65",
                        "t": "e1244fdce535c8a28f22d1c2e4b22f9254ebbb05a5e02ab1adda21c57dee0132"}),
    "time_floor": ([*SAMPLER_ARGV, "--q0", "0.6", "--t-floor", "0.5", "--u-max", "2"],
                   {"o": "ae510680b0e50d90a3e2631aa246f625e1d660b400ff8aad6de2393db7038343",
                    "t": "7d131a9743ecfdbc0025a0ee4f2205fb7c9c987e7a89cc700e9a71e1af2b35bf"}),
    "constant": ([*SAMPLER_ARGV, "--q0", "0.7", "--beta", "1.2"],
                 {"o": "800aa65e02527a6011a48ce08b84b1ebbbf4486b5ac612ccc4ea9f895ee9ab74",
                  "t": "fc069629bf15ad432470c65bff28b39ede9d0f539ae3f4c3065f8421cfc4169c"}),
    "q1_zero": ([*SAMPLER_ARGV, "--q0", "1", "--t-floor", "0.2"],
                {"o": "641e4c635e388ac4973c8696f8a80d69e558070b8fc05a555b5e8e945f740cd6",
                 "t": "7b88afdb2707394e10a514f9261f66829f336889f52e85e27b8861e9e0de0c1c"}),
    "cap_below_psi": ([*SAMPLER_ARGV, "--q0", "0.2", "--T", "3", "--psi", "1.5",
                       "--u-max", "1.2"],
                      {"o": "ac54e35c167fa1b7faa20fe8397b60e241d97689828f4b1b40c86d56f325f6b8",
                       "t": "82456b16e46dba7f3f02c0c5e42e26f34e8f56848e4f93d82a11624f52ceb9c8"}),
    "time_floor_T": ([*SAMPLER_ARGV, "--T", "2.5", "--q0", "0.6", "--t-floor", "0.5",
                      "--u-max", "2"],
                     {"o": "815f9124d6023e79e8d2294c1ef9dd929e50d6565450aae5d9bbfbac9ca819ab",
                      "t": "d62b8b4898c58a1a148683b46494696394427d689f328a281117aacbe944b938"}),
    "constant_T": ([*SAMPLER_ARGV, "--T", "2.5", "--q0", "0.7", "--beta", "1.2"],
                   {"o": "21f6baf6f18a9caec73a748fb105223cdaac37a9aefbb32c096f6a9c883fced6",
                    "t": "386464b2d8bc9ab764f776b49d7bb22d2e99826cfd69300f7099a7b49dfbee58"}),
    # Start bit 1: q0 < 1/2.
    "multicopy_start_1": (["simulate", "--scheme", "multicopy", "--q0", "0.3", "--chi", "0.9",
                           "--copies", "7", "--trials", "5000", "--seed", "2"],
                          {"o": "4e7b496ea11b288b296d22462949cf9126cd7530653cc5791931a5623777b2b9"}),
    # A fig1 column of seeded runs, one per row, beside an analytic one.
    "fig1_dolinar_mc": (["fig1", "--q0", "0.7", "--schemes", "helstrom,dolinar_mc",
                         "--points", "5", "--trials", "2000", "--seed", "3"],
                        {"o": "86d35627d86792ec662ce3f6c1a7f30a3015fe82b0e4c071fbe9ff10a8e17fcf"}),
}


def resolved(argv):
    spec, _, _ = cli._resolve(*cli._split([*argv, "-o", "unused"]), {})
    return spec


def pinned_run_digests(argv, files, tmp_path) -> dict:
    # Run argv writing -o to "o" and, if files names it, --trajectories to
    # "t"; return the sha256 of each file named.
    paths = {key: tmp_path / key for key in files}
    extra = ["--trajectories", str(paths["t"])] if "t" in paths else []
    assert main([*argv, "-o", str(paths["o"]), *extra]) == 0
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}


class TestColumnwiseSweep:
    """fig1 and fig3 compute each column over the whole axis in one call."""

    @pytest.mark.parametrize("command", ["fig1", "fig3"])
    def test_benchmark_sweep_writes_the_pinned_bytes(self, command, tmp_path):
        out = tmp_path / "o.csv"
        assert main([*SWEEP_ARGV[command], "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_SHA256[command]

    @pytest.mark.parametrize("name", JSON_SHA256)
    def test_json_outputs_write_the_pinned_bytes(self, name, tmp_path):
        argv, digests = JSON_SHA256[name]
        assert pinned_run_digests([*argv, "--format", "json"], digests, tmp_path) == digests

    @pytest.mark.parametrize("name", SAMPLER_SHA256)
    def test_sampler_runs_write_the_pinned_bytes(self, name, tmp_path):
        argv, digests = SAMPLER_SHA256[name]
        assert pinned_run_digests(argv, digests, tmp_path) == digests

    @pytest.mark.parametrize("shape", LAW_SHAPE_SHA256)
    def test_law_shapes_write_the_pinned_bytes(self, shape, tmp_path):
        extra, digest = LAW_SHAPE_SHA256[shape]
        out = tmp_path / "o.csv"
        assert main([*LAW_SHAPE_AXIS, *extra, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,lanes",
        [(["fig3", *SWEEP_AXIS, "--points", "300"], [(600,)]),
         (["fig1", *SWEEP_AXIS, "--schemes", ANALYTIC_FIG1, "--points", "300"], [(600,)]),
         (["fig3", *SWEEP_AXIS, "--points", "300", "--schemes", "kennedy,improved_kennedy"],
          [(300,)]),
         (["fig1", *SWEEP_AXIS, "--points", "300", "--schemes", "helstrom,simplified_dolinar"],
          [(300,)]),
         (["fig1", *SWEEP_AXIS, "--points", "300", "--schemes", "helstrom,dolinar_ode"], [])],
        ids=["fig3", "fig1", "fig3_ik", "fig1_sd", "fig1_none"],
    )
    def test_one_solve_per_command(self, argv, lanes, tmp_path, monkeypatch):
        # Both optimized columns are the two halves of one solve.
        solve, calls = rootfind_mod.solve_bracketed, []

        def counted(f, lo, hi):
            calls.append(np.shape(lo))
            return solve(f, lo, hi)

        monkeypatch.setattr(rootfind_mod, "solve_bracketed", counted)
        assert main([*argv, "-o", str(tmp_path / "o.csv")]) == 0
        assert calls == lanes

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--q0", "0.7", "--gamma-sq-min", "1e-6", "--gamma-sq-max", "40",
             "--schemes", ANALYTIC_FIG1],
            ["fig1", "--q0", "0.5", "--u-max", "1.5", "--T", "0.3", "--gamma-sq-min", "1e-4",
             "--gamma-sq-max", "30", "--schemes", ANALYTIC_FIG1],
            ["fig3", "--q0", "0.2", "--T", "3", "--gamma-sq-min", "1e-6", "--gamma-sq-max", "40"],
        ],
        ids=["fig1", "fig1_cap", "fig3"],
    )
    def test_columns_are_lane_independent(self, argv, tmp_path):
        # Each column over 300 points equals the column computed point by point.
        spec = resolved([*argv, "--points", "300"])
        kind = "pe" if spec.command == "fig1" else "beta_sq"
        table = cli._sweep(spec, str(tmp_path / "o.csv"), kind)
        axis = cli._axis(spec)
        names = list(axis.beta)
        assert names == [s for s in cli.OPTIMIZERS if s in spec.schemes]

        def point(i):
            # The axis cut to point i, with its displacements from its own solve.
            gamma = axis.gamma[i:i + 1]
            beta = solve_jointly(*(cli.OPTIMIZERS[name](axis.ranked, gamma) for name in names))
            return axis._replace(g=axis.g[i:i + 1], gamma=gamma, beta=dict(zip(names, beta)))

        points = [point(i) for i in range(300)]
        assert len(table) == len(spec.schemes) + 1
        for scheme in spec.schemes:
            column = cli.SCHEMES[scheme][kind]
            one = [column(point)[0] for point in points]
            assert table[f"{scheme}_{kind}"].tolist() == one, scheme

    def test_monte_carlo_column_writes_its_error_frequency(self, tmp_path):
        # One miss in 2e5 trials is 5e-06, not 1 - (1 - 5e-06).
        out = tmp_path / "f.csv"
        argv = ["fig1", "--schemes", "helstrom,dolinar_mc", "--q0", "0.9", "--gamma-sq-min", "2",
                "--gamma-sq-max", "2.6", "--points", "4", "--trials", "200000", "--seed", "1",
                "-o", str(out)]
        assert main(argv) == 0
        _, rows = read_rows(out)
        assert [row[2] for row in rows] == ["4e-05", "3e-05", "5e-06", "0"]
        for row in rows:
            misses = Decimal(row[2]) * 200000
            assert misses == misses.to_integral_value()

    def test_analytic_sweeps_draw_no_seeds(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SeedSequence called")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert main([*SWEEP_ARGV["fig1"], "-o", str(tmp_path / "o.csv")]) == 0


class TestPhotonNumberUnits:
    """The fig1 columns depend on gamma_sq alone, so they are computed in the
    units gamma = sqrt(gamma_sq), with no round trip through psi and T."""

    AXIS = ["fig1", "--q0", "0.7", "--gamma-sq-min", "1e-3", "--gamma-sq-max", "50",
            "--points", "400"]
    # gamma_sq and the four analytic columns of plain fig1 on AXIS, as the
    # release before this layout wrote them at T = 1.
    ANALYTIC_SHA256 = "2529038ea56e5577f3cde489042f02151dfa9fe8631acdb279c350493502600e"

    @staticmethod
    def _analytic_digest(path):
        lines = path.read_bytes().split(b"\n")
        return hashlib.sha256(b"\n".join(b",".join(l.split(b",")[:5]) for l in lines)).hexdigest()

    def test_analytic_columns_do_not_depend_on_T(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main([*self.AXIS, "-o", str(out)]) == 0
        assert self._analytic_digest(out) == self.ANALYTIC_SHA256
        # dolinar_ode reads --T; the columns before it must not move.
        for T in ("1", "1e-6", "0.356", "7", "1e6"):
            assert main([*self.AXIS, "--schemes", ANALYTIC_FIG1, "--T", T, "-o", str(out)]) == 0
            assert self._analytic_digest(out) == self.ANALYTIC_SHA256, T

    @pytest.mark.parametrize(
        "axis", [["--gamma-sq-min", "1e307", "--gamma-sq-max", "1.7e308", "--points", "4"], []],
        ids=["top_of_the_float_range", "default"])
    def test_dolinar_ode_column_does_not_depend_on_T(self, axis, tmp_path):
        # The uncapped law's column is a function of gamma_sq alone, so is its domain.
        written = []
        for T in ("0.5", "1", "10"):
            out = tmp_path / f"{T}.csv"
            assert main(["fig1", "--q0", "0.7", "--schemes", "helstrom,dolinar_ode", *axis,
                         "--T", T, "-o", str(out)]) == 0, T
            written.append(out.read_bytes())
        assert written[1:] == written[:1] * 2

    def test_simplified_dolinar_never_errs_more_than_nulling(self, tmp_path):
        # At q0 = 1e-300 the error is below 1e-300; a psi - beta a few ulps
        # from gamma - b once wrote 4.2e-33 on the last row.
        out = tmp_path / "o.csv"
        argv = ["fig1", "--q0", "1e-300", "--gamma-sq-min", "2.0838065814409403",
                "--gamma-sq-max", "66.61098998751947", "--T", "0.35593586358449797",
                "--points", "7", "--schemes", ANALYTIC_FIG1, "-o", str(out)]
        assert main(argv) == 0
        header, rows = read_rows(out)
        k, sd = header.index("kennedy_pe"), header.index("simplified_dolinar_pe")
        for row in rows:
            assert float(row[sd]) <= float(row[k]), row


class TestFig3:
    def test_header_and_nulling_reference(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["fig3", "--points", "5", "-o", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(FIG3_HEADER)
        header, rows = read_rows(out)
        for cells in rows:
            # the nulling receiver displaces by exactly the signal intensity
            assert cells[1] == cells[0]

    def test_displacement_excess_shrinks_with_signal(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["fig3", "--points", "8", "-o", str(out)]) == 0
        _, rows = read_rows(out)

        def excess(cells, col):
            return math.sqrt(float(cells[col])) - math.sqrt(float(cells[0]))

        for col in (2, 3):
            assert excess(rows[0], col) > excess(rows[-1], col) > 0.0


class TestMinorityPrior:
    """q0 < 1/2: every column is label-blind; Kennedy nulls the likelier hypothesis."""

    @pytest.mark.parametrize(
        "command,schemes",
        [
            ("fig1", "helstrom,kennedy,improved_kennedy,simplified_dolinar,dolinar_ode"),
            ("fig3", "kennedy,improved_kennedy,simplified_dolinar"),
        ],
    )
    def test_columns_equal_the_relabeled_run(self, command, schemes, tmp_path):
        cols = {}
        for q0 in ("0.3", "0.7"):
            out = tmp_path / f"{command}_{q0}.csv"
            argv = [command, "--q0", q0, "--schemes", schemes, "--points", "5",
                    "--gamma-sq-max", "4", "-o", str(out)]
            assert main(argv) == 0
            header, rows = read_rows(out)
            cols[q0] = {h: [r[i] for r in rows] for i, h in enumerate(header)}
        assert cols["0.3"].keys() == cols["0.7"].keys()
        for name, low in cols["0.3"].items():
            # Priors(0.3) relabeled is (0.7, 0.3), not Priors(0.7) = (0.7,
            # 0.30000000000000004); beyond that ulp the columns agree.
            high = [float(v) for v in cols["0.7"][name]]
            assert [float(v) for v in low] == pytest.approx(high, abs=1e-14), name

    def test_kennedy_never_errs_more_than_guessing(self, tmp_path):
        out = tmp_path / "f.csv"
        argv = ["fig1", "--q0", "0.3", "--gamma-sq-min", "0.01", "--gamma-sq-max", "0.1",
                "--points", "2", "--schemes", "helstrom,kennedy,improved_kennedy", "-o", str(out)]
        assert main(argv) == 0
        header, rows = read_rows(out)
        for row in rows:
            h, k, ik = (float(row[header.index(f"{s}_pe")])
                        for s in ("helstrom", "kennedy", "improved_kennedy"))
            assert h <= ik <= k <= 0.3


class TestSimulate:
    def test_multicopy_run(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(
            [
                "simulate",
                "--scheme", "multicopy",
                "--q0", "0.6",
                "--chi", "0.8",
                "--copies", "2",
                "--trials", "2000",
                "--seed", "2",
                "-o", str(out),
            ]
        )
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(SIM_HEADER)
        _, (cells,) = read_rows(out)
        assert cells[0] == "multicopy"
        assert cells[3] == "2000" and cells[4] == "2"
        assert cells[5] == "0.889481706887"
        assert abs(float(cells[1]) - float(cells[5])) < 5.0 * float(cells[2])
        assert float(cells[6]) < 5.0

    def test_multicopy_beyond_twenty_copies(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--scheme", "multicopy", "--q0", "0.7", "--theta", "0.2",
                "--copies", "25", "--trials", "200", "-o", str(out)]
        assert main(argv) == 0
        _, (cells,) = read_rows(out)
        bound = qsdr.multicopy_bound(qsdr.Priors(0.7), qsdr.QubitPair(0.2).chi, 25)
        assert abs(float(cells[5]) - bound) < 1e-12

    def test_time_floor_analytic_follows_the_floored_law(self, tmp_path):
        # The floor changes the law, so the Helstrom curve is no reference.
        out = tmp_path / "s.csv"
        argv = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--t-floor", "0.2",
                "--trials", "200", "-o", str(out)]
        assert main(argv) == 0
        _, (cells,) = read_rows(out)
        pr = qsdr.Priors(0.5)
        law = qsdr.LawFamily(t_floor=0.2).law(pr, 1.0)
        ode = rk45(pr, 1.0, law).final.pc(pr)
        assert abs(float(cells[5]) - ode) < 1e-9
        assert abs(ode - qsdr.helstrom_trajectory(pr, 1.0, 1.0)) > 1e-3

    def test_exact_agreement_scores_zero(self, tmp_path):
        # With q1 = 0 every trial ends on the symbol, and the analytic value is 1.
        out = tmp_path / "s.csv"
        argv = ["simulate", "--scheme", "dolinar_mc", "--q0", "1", "--t-floor", "0.2",
                "--trials", "200", "-o", str(out)]
        assert main(argv) == 0
        _, (cells,) = read_rows(out)
        assert (cells[1], cells[2], cells[5], cells[6]) == ("1", "0", "1", "0")

    def test_z_score_divides_by_the_null_standard_error(self, tmp_path):
        # The benchmark's telegraph run at seed 9 sees few errors: its own standard
        # error 3.835e-4 would give z = 4.38, the binomial one at the analytic value 3.50.
        out = tmp_path / "s.json"
        assert main([*TELEGRAPH_ARGV, "--seed", "9", "--format", "json", "-o", str(out)]) == 0
        (row,) = json.loads(out.read_text())["rows"]
        p, n = row["analytic"], row["trials"]
        assert row["stderr"] == 0.000383490384495  # the sample's own
        assert abs(row["z_score"] - 3.50) < 5e-3
        null_se = math.sqrt(p * (1.0 - p) / n)
        assert row["z_score"] == pytest.approx(abs(row["estimate"] - p) / null_se, rel=1e-6)

    @pytest.mark.parametrize("argv", [TELEGRAPH_ARGV, MULTICOPY_ARGV], ids=["dolinar_mc", "multicopy"])
    def test_z_score_is_qsdr_null_z(self, argv, tmp_path):
        row = cli.cmd_simulate(resolved([*argv, "--seed", "9"]), str(tmp_path / "s.csv"))
        z = qsdr.null_z(row["estimate"], row["analytic"], row["trials"])
        assert row["z_score"] == z and 0.0 < z < math.inf

    # An analytic value of 1 is TestJsonFormat's and test_exact_agreement_scores_zero's.
    @pytest.mark.parametrize("estimate,z", [(0.01, math.inf), (0.0, 0.0)])
    def test_z_score_is_infinite_only_where_a_certain_analytic_value_is_missed(
        self, estimate, z, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(cli.SCHEMES["multicopy"], "simulate",
                            lambda spec, export: (estimate, 0.01, 0.0))
        row = cli.cmd_simulate(resolved(MULTICOPY_ARGS), str(tmp_path / "s.csv"))
        assert row["z_score"] == z

    def test_dolinar_reruns_identically(self, tmp_path):
        args = [
            "simulate",
            "--scheme", "dolinar_mc",
            "--q0", "0.5",
            "--u-max", "8",
            "--trials", "300",
            "--seed", "13",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv,library",
        [
            (["--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8", "--psi", "0.8",
              "--trials", "300", "--seed", "13"],
             lambda: simulate_telegraph(
                 Priors(0.5), 0.8 * 0.8, LawFamily(u_max=8.0).law(Priors(0.5), 0.8 * 0.8),
                 300, 13)),
            (["--scheme", "dolinar_mc", "--q0", "0.3", "--beta", "-0.5", "--T", "2",
              "--trials", "200", "--seed", "5"],
             lambda: simulate_telegraph(Priors(0.3), 2.0, ControlLaw.constant(-0.5 * math.sqrt(2.0)),
                                        200, 5)),
            (["--scheme", "multicopy", "--q0", "0.6", "--theta", "0.3", "--copies", "5",
              "--trials", "700", "--seed", "8"],
             lambda: simulate_adaptive(Priors(0.6), 0.3, 5, 700, 8)),
        ],
        ids=["telegraph", "constant", "multicopy"],
    )
    def test_row_is_the_library_estimate(self, argv, library, tmp_path):
        # Full floats, in-process: the CLI's run is the library's.
        row = cli.cmd_simulate(resolved(["simulate", *argv]), str(tmp_path / "s.csv"))
        assert (row["estimate"], row["stderr"]) == library()

    def test_fig1_dolinar_mc_rows_count_their_runs_errors(self, tmp_path):
        # Row i is its own run, seeded by the i-th word of the run's seed.
        trials, points = 400, 4
        spec = resolved(["fig1", "--q0", "0.7", "--u-max", "3", "--schemes", "dolinar_mc",
                         "--points", str(points), "--trials", str(trials), "--seed", "11"])
        table = cli.cmd_fig1(spec, str(tmp_path / "f.csv"))
        pr = Priors(0.7)
        seeds = streams_mod.seed_words(11, points).tolist()
        rows = zip(table["gamma_sq"].tolist(), table["dolinar_mc_pe"].tolist(), seeds, strict=True)
        for g, pe, seed in rows:
            law = LawFamily(u_max=3.0).law(pr, g)
            chunks = telegraph_chunks(pr, g, law, trials, seed)
            hits = sum(int(np.count_nonzero(tr.z_final == tr.a)) for _, tr in chunks)
            assert pe == (trials - hits) / trials

    def test_trajectory_export(self, tmp_path):
        out, traj = tmp_path / "s.csv", tmp_path / "t.csv"
        args = [
            "simulate",
            "--scheme", "dolinar_mc",
            "--q0", "0.7",
            "--trials", "60",
            "--seed", "5",
            "-o", str(out),
            "--trajectories", str(traj),
        ]
        assert main(args) == 0
        data = traj.read_bytes()
        assert data.startswith(TRAJ_HEADER)
        lines = data.decode().splitlines()[1:]
        assert len(lines) == 60
        hits = 0
        for i, line in enumerate(lines):
            trial, a, z_final, times = line.split(",")
            assert int(trial) == i
            clicks = [float(t) for t in times.split(";")] if times else []
            assert int(z_final) == (len(clicks) & 1)  # z0 = 0 at q0 = 0.7
            assert clicks == sorted(clicks)
            hits += int(z_final) == int(a)
        _, (cells,) = read_rows(out)
        assert float(cells[1]) == pytest.approx(hits / 60, abs=1e-12)
        # byte-identical on rerun, trajectories included
        out2, traj2 = tmp_path / "s2.csv", tmp_path / "t2.csv"
        args2 = args[:-3] + [str(out2), "--trajectories", str(traj2)]
        assert main(args2) == 0
        assert traj2.read_bytes() == data

    @pytest.mark.parametrize("rows", [1, 7])
    def test_dolinar_output_is_independent_of_chunking(self, rows, tmp_path, monkeypatch):
        for fmt in ("csv", "json"):
            args = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                    "--trials", "50", "--seed", "3", "--format", fmt]
            files = []
            for budget in (streams_mod.CHUNK_UNIFORMS, 4 * rows):
                monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget)
                out, traj = tmp_path / f"s{budget}.{fmt}", tmp_path / f"t{budget}.{fmt}"
                assert main(args + ["-o", str(out), "--trajectories", str(traj)]) == 0
                files.append((out.read_bytes(), traj.read_bytes()))
            assert files[0] == files[1], fmt

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("q0,law", TELEGRAPH_LAWS)
    def test_streamed_export_matches_the_in_memory_writer(
        self, q0, law, fmt, rows, tmp_path, monkeypatch
    ):
        args = ["simulate", "--scheme", "dolinar_mc", "--q0", str(q0), "--trials", "60",
                "--seed", "4", "--format", fmt]
        traj = tmp_path / f"t.{fmt}"
        spec, _, _ = cli._resolve(*cli._split(args + ["-o", "o", "--trajectories", str(traj)]), {})
        pr = Priors(q0)
        # 60 trials are one chunk at the default size.
        want = render_trajectories(spec, one_chunk(pr, 1.0, law, 60, seed=4))
        # TELEGRAPH_LAWS holds laws the options cannot spell (ten slots).
        monkeypatch.setattr(cli, "_law_family", lambda spec: SimpleNamespace(law=lambda pr, psi: law))
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(rows))
        assert main(args + ["-o", str(tmp_path / f"o.{fmt}"), "--trajectories", str(traj)]) == 0
        assert traj.read_bytes() == want

    def test_trajectory_json_export(self, tmp_path):
        out, traj = tmp_path / "s.json", tmp_path / "t.json"
        rc = main(
            [
                "simulate",
                "--scheme", "dolinar_mc",
                "--q0", "0.7",
                "--trials", "20",
                "--seed", "5",
                "--format", "json",
                "-o", str(out),
                "--trajectories", str(traj),
            ]
        )
        assert rc == 0
        doc = json.loads(traj.read_text())
        assert set(doc) == {"spec", "trajectories", "tool_version", "seed"}
        assert len(doc["trajectories"]) == 20
        rec = doc["trajectories"][0]
        assert set(rec) == {"trial", "a", "z_final", "click_times"}


class TestJsonFormat:
    def test_mirrors_csv_exactly(self, tmp_path):
        base = [
            "fig1",
            "--points", "4",
            "--q0", "0.7",
            "--schemes", "helstrom,kennedy",
        ]
        csv_p, json_p = tmp_path / "o.csv", tmp_path / "o.json"
        assert main(base + ["-o", str(csv_p)]) == 0
        assert main(base + ["--format", "json", "-o", str(json_p)]) == 0
        header, rows = read_rows(csv_p)
        doc = json.loads(json_p.read_text())
        assert set(doc) == {"spec", "rows", "tool_version", "seed"}
        assert doc["tool_version"] == qsdr.__version__
        assert doc["seed"] == 0
        assert doc["spec"]["command"] == "fig1"
        assert doc["spec"]["schemes"] == ["helstrom", "kennedy"]
        assert "output" not in doc["spec"]
        assert len(doc["rows"]) == len(rows)
        for cells, rec in zip(rows, doc["rows"]):
            for col, cell in zip(header, cells):
                assert float(cell) == rec[col]  # same 12-digit rounding


    def test_infinite_z_score_is_strict_json_null(self, tmp_path, monkeypatch):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        # Every trial right against an analytic value just below one: the sample's
        # standard error is 0, but z divides by the null's and stays small.
        argv = ["simulate", "--scheme", "multicopy", "--q0", "0.7", "--chi", "0.1",
                "--copies", "5", "--trials", "1000", "--format", "json"]
        out = tmp_path / "o.json"
        assert main([*argv, "-o", str(out)]) == 0
        (row,) = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert row["stderr"] == 0.0 and row["estimate"] == 1.0 and row["analytic"] < 1.0
        assert 0.0 < row["z_score"] < 1e-3
        # z is infinite only where a certain analytic value is missed: CSV inf, JSON null.
        monkeypatch.setitem(cli.SCHEMES["multicopy"], "simulate",
                            lambda spec, export: (0.99, 0.01, 1.0))
        csv_p = tmp_path / "o.csv"
        assert main([*argv, "-o", str(out)]) == 0
        assert main([*argv[:-2], "-o", str(csv_p)]) == 0
        (row,) = json.loads(out.read_text(), parse_constant=reject)["rows"]
        assert row["z_score"] is None
        assert csv_p.read_bytes().startswith(SIM_HEADER)
        assert read_rows(csv_p)[1][0][6] == "inf"

    def test_unserializable_record_leaves_no_file(self, tmp_path):
        spec = cli.SweepSpec("fig3", ("kennedy",), gamma_sq_min=0.1, gamma_sq_max=1.0, points=2,
                             spacing="log", q0=0.5, seed=0, format="json")
        out = tmp_path / "o.json"
        with pytest.raises(ValueError):
            cli._write_json(str(out), spec, "rows", [{"x": math.inf}])
        assert not out.exists()


MULTICOPY_ARGS = ["simulate", "--scheme", "multicopy", "--chi", "0.8", "--copies", "2",
                  "--trials", "5"]


class TestResolution:
    def _seed_of(self, tmp_path, extra, name):
        out = tmp_path / f"{name}.json"
        rc = main(
            ["fig1", "--points", "2", "--schemes", "kennedy", "--format", "json"]
            + extra
            + ["-o", str(out)]
        )
        assert rc == 0
        return json.loads(out.read_text())["seed"]

    def test_seed_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "qsdr.cfg"
        cfg.write_text("seed = 9\n")
        monkeypatch.setenv("QSDR_SEED", "4")
        assert self._seed_of(tmp_path, ["--seed", "5", "--config", str(cfg)], "a") == 5
        assert self._seed_of(tmp_path, ["--config", str(cfg)], "b") == 9
        assert self._seed_of(tmp_path, [], "c") == 4
        monkeypatch.delenv("QSDR_SEED")
        assert self._seed_of(tmp_path, [], "d") == 0

    @pytest.mark.parametrize(
        "command,law",
        [("fig1", ["--beta", "1.2", "--u-max", "8"]),
         ("fig1", ["--beta", "1.2", "--t-floor", "0.1"]),
         ("simulate", ["--beta", "0", "--t-floor", "0", "--u-max", "8"]),
         ("fig1_mc", ["--beta", "1.2", "--u-max", "8"])],
    )
    def test_beta_with_cap_or_floor_is_refused(self, command, law, tmp_path, capsys):
        # --beta is the constant envelope, which takes no cap or floor; every
        # scheme that runs a law refuses the pair, from argv and config alike.
        base = {"fig1": ["fig1", "--points", "2", "--schemes", "dolinar_ode"],
                "simulate": ["simulate", "--scheme", "dolinar_mc", "--trials", "5"],
                "fig1_mc": ["fig1", "--points", "2", "--schemes", "dolinar_mc"]}[command]
        cfg = tmp_path / "law.cfg"
        cfg.write_text("".join(f"{k[2:]} = {v}\n" for k, v in zip(law[::2], law[1::2])))
        out = tmp_path / "o.csv"
        for extra in (law, ["--config", str(cfg)]):
            assert main([*base, *extra, "-o", str(out)]) == 2
            assert capsys.readouterr().err == (
                "qsdr: invalid spec: beta sets a constant law; it takes no t_floor or u_max\n"
            )
            assert not out.exists()

    def test_beta_alone_runs_the_constant_law(self, tmp_path):
        # And the spec records beta only when it is given.
        argv = ["fig1", "--q0", "0.7", "--points", "3", "--schemes", "dolinar_ode",
                "--format", "json"]
        assert main([*argv, "--beta", "1.2", "-o", str(tmp_path / "b.json")]) == 0
        assert main([*argv, "-o", str(tmp_path / "o.json")]) == 0
        constant, optimal = (json.loads((tmp_path / f).read_text()) for f in ("b.json", "o.json"))
        assert constant["spec"]["beta"] == 1.2 and "beta" not in optimal["spec"]
        pr, law = Priors(0.7), qsdr.ControlLaw.constant(1.2)
        for row in constant["rows"]:
            pe = qsdr.evolve_pc(pr, row["gamma_sq"], law, sample_times=()).final.pe(pr)
            assert row["dolinar_ode_pe"] == float(f"{pe:.12g}")
        assert constant["rows"] != optimal["rows"]

    def test_invalid_seed_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSDR_SEED", "not-a-number")
        out = tmp_path / "o.csv"
        assert main(["fig1", "--points", "2", "-o", str(out)]) == 2
        # an explicit seed shields the run from the bad variable
        assert main(["fig1", "--points", "2", "--seed", "1", "-o", str(out)]) == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["fig1", "--points", "2"],
            ["fig3", "--points", "2"],
            ["simulate", "--scheme", "multicopy", "--theta", "0.2", "--copies", "2",
             "--trials", "5"],
        ],
    )
    def test_negative_seed_is_rejected(self, args, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o.csv"
        assert main(args + ["--seed", "-1", "-o", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        monkeypatch.setenv("QSDR_SEED", "-1")
        assert main(args + ["-o", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,field",
        [
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--trials", "5",
              "--beta", "inf", "--format", "json"], "beta"),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--trials", "5",
              "--u-max", "inf"], "u_max"),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--trials", "5",
              "--psi", "nan"], "psi"),
            (["fig3", "--points", "2", "--T", "inf"], "T"),
            (["fig1", "--points", "2", "--gamma-sq-max", "inf"], "gamma_sq_max"),
            (["simulate", "--scheme", "multicopy", "--chi=nan", "--copies", "2",
              "--trials", "5"], "chi"),
            (["simulate", "--scheme", "multicopy", "--chi=-inf", "--copies", "2",
              "--trials", "5"], "chi"),
        ],
    )
    def test_non_finite_value_is_rejected(self, args, field, tmp_path, capsys):
        out = tmp_path / "o.out"
        assert main(args + ["-o", str(out)]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["simulate", "--scheme", "multicopy", "--theta", "0.2", "--copies", "2",
              "--trials", "0"], "trials must be >= 1 for Monte Carlo schemes, got 0"),
            (["simulate", "--scheme", "multicopy", "--chi", "1", "--copies", "2",
              "--trials", "5"], "chi must be < 1"),
            (["fig1", "--points", "2", "--schemes", "dolinar_ode", "--u-max", "-1"],
             "u_max must be > 0, got -1.0"),
        ],
        ids=["trials", "chi", "u_max"],
    )
    def test_message_names_the_value_given(self, args, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(args + ["-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file(self, tmp_path):
        out = tmp_path / "from_config.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# comment line\n"
            "gamma-sq-min = 0.2   # hyphens allowed\n"
            "gamma-sq-max = 2.0\n"
            "points = 2\n"
            "spacing = linear\n"
            f"output = {out}\n"
        )
        assert main(["fig1", "--config", str(cfg)]) == 0
        assert out.read_bytes().decode().splitlines()[1] == ROW_AT_02

    def test_cli_overrides_config(self, tmp_path):
        out = tmp_path / "o.json"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("points = 2\nq0 = 0.6\n")
        assert main(
            [
                "fig1",
                "--config", str(cfg),
                "--q0", "0.7",
                "--schemes", "kennedy",
                "--format", "json",
                "-o", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["q0"] == 0.7
        assert doc["spec"]["points"] == 2

    def test_config_key_T_is_the_T_option(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("T = 4\n")
        # fig3's simplified_dolinar_beta_sq is the envelope intensity b**2/T,
        # so it depends on T; the analytic fig1 columns depend on gamma_sq
        # alone (TestPhotonNumberUnits).
        args = ["fig3", "--points", "3", "--q0", "0.7"]
        assert main(args + ["--config", str(cfg), "-o", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--T", "4", "-o", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert main(args + ["-o", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize(
        "args,key",
        [
            (["fig1"], "gamma_sq_mn"),
            # Keys of another command's options, which an earlier release ignored.
            (["fig1"], "psi"),
            (["fig1"], "chi"),
            (["fig1"], "copies"),
            (["fig1"], "trajectories"),
            # The law is set by beta, u_max and t_floor alone.
            (["fig1"], "control"),
            (MULTICOPY_ARGS, "control"),
            (MULTICOPY_ARGS, "gamma_sq_min"),
            (MULTICOPY_ARGS, "points"),
            # No fig3 column runs a law or a Monte Carlo.
            (["fig3"], "trials"),
            (["fig3"], "u_max"),
            (["fig3"], "t_floor"),
            # A config file cannot name another.
            (["fig1"], "config"),
        ],
    )
    def test_unknown_config_key_is_rejected(self, args, key, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"points = 2\n{key} = 0.2\n" if args == ["fig1"] else f"{key} = 2\n")
        out = tmp_path / "o.csv"
        assert main([*args, "--config", str(cfg), "-o", str(out)]) == 2
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("format", "xml", "format must be csv or json, got xml"),
            ("q0", "abc", "q0 must be a number, got 'abc'"),
            ("seed", "2.5", "seed must be an integer, got '2.5'"),
        ],
    )
    def test_bad_value_fails_alike_from_argv_and_config(self, key, value, message, tmp_path,
                                                        capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "o.csv"
        for extra in (["--" + key, value], ["--config", str(cfg)]):
            assert main([*MULTICOPY_ARGS, *extra, "-o", str(out)]) == 2
            assert capsys.readouterr().err == f"qsdr: invalid spec: {message}\n"
            assert not out.exists()

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points 2\n")
        assert main(["fig1", "--config", str(cfg), "-o", "x.csv"]) == 2

    def test_output_required(self, tmp_path):
        assert main(["fig1", "--points", "2"]) == 2


# The options each command reads whatever its schemes, and what each column
# or run reads beyond them.
EVERY = {"config", "output", "format", "seed", "q0"}
SWEEP = EVERY | {"gamma_sq_min", "gamma_sq_max", "points", "spacing", "schemes"}
COMMAND_READS = {"fig1": SWEEP, "fig3": SWEEP, "simulate": EVERY | {"scheme"}}
LAW = {"T", "beta", "u_max", "t_floor"}
RUN_READS = {
    ("fig1", "helstrom"): set(),
    ("fig1", "kennedy"): set(),
    ("fig1", "improved_kennedy"): set(),
    ("fig1", "simplified_dolinar"): set(),
    ("fig1", "dolinar_ode"): LAW,
    ("fig1", "dolinar_mc"): LAW | {"trials"},
    ("fig3", "kennedy"): set(),
    ("fig3", "improved_kennedy"): set(),
    ("fig3", "simplified_dolinar"): {"T"},
    ("simulate", "dolinar_mc"): LAW | {"trials", "psi", "trajectories"},
    ("simulate", "multicopy"): {"trials", "theta", "chi", "copies"},
}
# Options that are not spec fields: paths, the scheme selection, chi (as theta).
NOT_IN_SPEC = {"config", "output", "trajectories", "scheme", "chi"}


# A valid value of each option, for the route-agreement test.
OPTION_VALUES = {
    "output": "out.csv", "format": "json", "seed": "7", "q0": "0.3", "T": "2",
    "gamma_sq_min": "0.1", "gamma_sq_max": "3", "points": "5", "spacing": "linear",
    "schemes": "kennedy,improved_kennedy", "trials": "50", "u_max": "4", "t_floor": "0.1",
    "beta": "1.2", "scheme": "dolinar_mc", "psi": "0.8",
    "theta": "0.3", "chi": "0.5", "copies": "3", "trajectories": "t.csv",
}


def route_base(command, key):
    """argv of a run of the command that reads the option, the option itself
    left out: the output and, for an option only some schemes read, one of
    those schemes (simulate needs a scheme whatever the option)."""
    readers = [s for (c, s), reads in RUN_READS.items() if c == command and key in reads]
    base = {"output": "base.csv", "scheme": readers[0] if readers else "multicopy"}
    if readers:
        base["schemes"] = readers[0]
    return [command, *chain.from_iterable(
        ("--" + k, v) for k, v in base.items() if k != key and k in cli.OPTIONS[command]
    )]


class TestGrammar:
    """argv and config files are two spellings of one option table."""

    @pytest.fixture
    def spec_of(self, monkeypatch, capsys):
        # main's outcome: what the command would run with, or its message.
        def record(spec, output, trajectories=None):
            runs.append((spec, output, trajectories))

        runs = []
        for name in ("cmd_fig1", "cmd_fig3", "cmd_simulate"):
            monkeypatch.setattr(cli, name, record)

        def outcome(argv):
            rc = main(argv)
            err = capsys.readouterr().err
            return runs.pop() if rc == 0 else (rc, err)

        return outcome

    @pytest.mark.parametrize(
        "command,key",
        [(c, k) for c, options in cli.OPTIONS.items() for k in options if k != "config"],
    )
    def test_argv_and_config_resolve_alike(self, command, key, spec_of, tmp_path):
        flag = "--" + key.replace("_", "-")
        base = route_base(command, key)
        cfg = tmp_path / "one.cfg"
        for value in (OPTION_VALUES[key], "abc", "-1"):
            cfg.write_text(f"{key} = {value}\n")
            routes = [[*base, flag, value], [*base, f"{flag}={value}"],
                      [*base, "--config", str(cfg)]]
            first, *rest = [spec_of(argv) for argv in routes]
            assert rest == [first, first], (key, value)
            if value == OPTION_VALUES[key]:
                spec, output, trajectories = first
                # The value lands where it belongs.
                got = {"output": output, "trajectories": trajectories,
                       "scheme": spec.schemes[0], "schemes": ",".join(spec.schemes),
                       "chi": spec.theta and round(math.cos(2.0 * spec.theta), 12)}
                landed = got[key] if key in got else getattr(spec, key)
                assert str(landed) == value or landed == float(value), (key, landed)

    def test_last_occurrence_wins(self, spec_of):
        spec, output, _ = spec_of(["fig1", "--points", "3", "-o", "a", "--points=4",
                                   "--output", "b", "--q0=0.2", "--q0", "0.3"])
        assert (spec.points, spec.q0, output) == (4, 0.3, "b")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fig1", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
            # What float() reads is a value, not a flag.
            (["simulate", "--scheme", "dolinar_mc", "--beta", "-inf"],
             "beta must be finite, got -inf"),
            (["simulate", "--scheme", "dolinar_mc", "--beta", "-nan"],
             "beta must be finite, got nan"),
            (["fig1", "--points"], "option --points needs a value"),
            (["fig1", "--points", "--q0", "0.3"], "option --points needs a value"),
            (["fig1", "--psi", "0.5"], "fig1 has no option --psi"),
            # The law is set by --beta, --u-max and --t-floor alone.
            (["fig1", "--control", "constant"], "fig1 has no option --control"),
            (["simulate", "--control=capped_dolinar"], "simulate has no option --control"),
            (["fig3", "--trials", "0"], "fig3 has no option --trials"),
            (["fig3", "--u-max", "5"], "fig3 has no option --u-max"),
            (["fig3", "--t-floor=3"], "fig3 has no option --t-floor"),
            (["simulate", "--scheme", "multicopy", "--points", "3"],
             "simulate has no option --points"),
            (["fig1", "--points", "3", "4"], "unexpected argument '4'"),
            (["fig1", "stray"], "unexpected argument 'stray'"),
            # Names match exactly: no abbreviations, no underscores.
            (["fig1", "--gamma-sq-mi", "0.1"], "fig1 has no option --gamma-sq-mi"),
            (["fig1", "--gamma_sq_min", "0.1"], "fig1 has no option --gamma_sq_min"),
            (["fig2"], "the command must be one of fig1, fig3, simulate, got 'fig2'"),
            ([], "the command must be one of fig1, fig3, simulate, got none"),
        ],
    )
    def test_bad_argv_exits_2_naming_the_token(self, argv, message, spec_of):
        rc, err = spec_of([*argv, "-o", "unused"] if argv[1:] else argv)
        assert rc == 2
        assert err.startswith(f"qsdr: invalid spec: {message}")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], *([c, "--help"] for c in cli.OPTIONS),
                                      ["simulate", "--scheme", "multicopy", "-h", "--bogus"]])
    def test_help_lists_the_options(self, argv, capsys):
        assert main(argv) == 0
        text = capsys.readouterr().out
        for command, options in cli.OPTIONS.items():
            if command in argv or argv[0].startswith("-"):
                assert f"qsdr {command}" in text
                for key in options:
                    assert "--" + key.replace("_", "-") in text, key


def select(command, scheme):
    return [command, "--scheme" if command == "simulate" else "--schemes", scheme]


class TestReadTable:
    """A run takes only the options its command and its schemes read."""

    def test_each_run_reads_its_table(self):
        runs = {(c, name) for c in cli.COMMANDS for name, s in cli.SCHEMES.items()
                if cli.COMMANDS[c][0] in s}
        assert runs == set(RUN_READS)
        for (command, scheme), reads in RUN_READS.items():
            assert set(cli._reads(command, (scheme,))) == COMMAND_READS[command] | reads
        for command, own in COMMAND_READS.items():
            union = own.union(*(r for (c, _), r in RUN_READS.items() if c == command))
            assert set(cli.OPTIONS[command]) == union

    @pytest.mark.parametrize(
        "command,scheme,key",
        [(c, s, k) for (c, s), reads in RUN_READS.items() for k in cli.OPTIONS[c]
         if k not in COMMAND_READS[c] | reads],
    )
    def test_unread_option_exits_2(self, command, scheme, key, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where a relative --trajectories path would land
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {OPTION_VALUES[key]}\n")
        flag = "--" + key.replace("_", "-")
        for extra in ([flag, OPTION_VALUES[key]], ["--config", str(cfg)]):
            assert main([*select(command, scheme), *extra, "-o", "o.csv"]) == 2
            selection = "--scheme" if command == "simulate" else "--schemes"
            assert capsys.readouterr().err == (
                f"qsdr: invalid spec: {command} {selection} {scheme} does not read {flag}\n"
            )
            assert list(tmp_path.iterdir()) == [cfg]

    def test_refusal_names_every_unread_option(self, capsys):
        argv = ["simulate", "--scheme", "multicopy", "--psi", "3", "--u-max", "8",
                "--t-floor", "2", "--T", "5", "-o", "unused"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("qsdr: invalid spec: simulate --scheme multicopy "
                                           "does not read --T, --u-max, --t-floor, --psi\n")
        assert main(["fig1", "--beta", "1.2", "--trials", "7", "-o", "unused"]) == 2
        assert capsys.readouterr().err == (
            "qsdr: invalid spec: fig1 --schemes helstrom,kennedy,improved_kennedy,"
            "simplified_dolinar does not read --beta, --trials\n"
        )

    @pytest.mark.parametrize("command", COMMAND_READS)
    def test_help_names_the_schemes_that_read_an_option(self, command, capsys):
        assert main([command, "--help"]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  -")}
        for key in cli.OPTIONS[command]:
            line = lines["--output/-o" if key == "output" else "--" + key.replace("_", "-")]
            readers = [s for (c, s), reads in RUN_READS.items() if c == command and key in reads]
            if key in COMMAND_READS[command]:
                assert "(" not in line, line
            else:
                assert line.endswith(f" ({', '.join(readers)})"), line

    @pytest.mark.parametrize("command,scheme", RUN_READS)
    def test_json_spec_holds_what_the_run_read(self, command, scheme, tmp_path):
        # Every option the run reads is given or has a default, but --beta,
        # which excludes --u-max and --t-floor.
        given = {"u_max": "8", "t_floor": "0.01", "trials": "20", "theta": "0.2", "copies": "2"}
        reads = COMMAND_READS[command] | RUN_READS[command, scheme]
        argv = [*select(command, scheme), "--q0", "0.7", "--format", "json"]
        argv += ["--points", "2"] if command != "simulate" else []
        for key in reads & given.keys():
            argv += ["--" + key.replace("_", "-"), given[key]]
        out = tmp_path / "o.json"
        assert main([*argv, "-o", str(out)]) == 0
        spec = json.loads(out.read_text())["spec"]
        assert set(spec) == reads - NOT_IN_SPEC - {"beta"} | {"command", "schemes"}


class TestExitCodes:
    def test_help_and_usage(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["fig1", "--points", "1"],
            ["fig1", "--gamma-sq-min", "2.0", "--gamma-sq-max", "0.2"],
            ["fig1", "--schemes", "nonsense"],
            ["fig1", "--schemes", "multicopy"],
            ["fig3", "--schemes", "helstrom"],
            ["simulate", "--scheme", "multicopy", "--theta", "0.3", "--chi", "0.8",
             "--copies", "2"],
            ["simulate", "--scheme", "multicopy", "--chi", "0.8"],
            ["simulate"],
            ["simulate", "--scheme", "multicopy", "--chi", "0.8", "--copies", "2",
             "--trajectories", "t.csv"],
        ],
    )
    def test_invalid_specs(self, args, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(args + ["-o", str(out)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["fig1", "--schemes", ","], "scheme list must not be empty"),
            (["simulate", "--scheme", "multicopy", "--copies", "3"],
             "multicopy requires --theta or --chi"),
        ],
    )
    def test_refusals_name_their_cause(self, args, message, tmp_path, capsys):
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"qsdr: invalid spec: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert main(["fig1", "--points", "2", "-o", str(missing)]) == 2

    def test_unwritable_trajectory_file_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "telegraph_chunks", refuse, raising=False)
        monkeypatch.setattr(cli, "simulate_telegraph", refuse)
        out = tmp_path / "ok.csv"
        rc = main(["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                   "--trials", "50", "-o", str(out),
                   "--trajectories", str(tmp_path / "missing_dir" / "t.csv")])
        assert rc == 2
        assert "invalid spec" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_trajectory_file_naming_the_output_is_refused(self, tmp_path, monkeypatch, capsys):
        # Both writers would open one file, and one output would be lost.
        # Spelled another way, it is still the same file.
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                   "--trials", "5", "-o", "same.csv",
                   "--trajectories", str(tmp_path / "." / "same.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "qsdr: invalid spec: --trajectories names the --output file 'same.csv'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_removes_its_partial_trajectory_file(self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                "--trials", "50", "--trajectories", str(tmp_path / "t.csv")]
        # A scheme without click records does not read --trajectories.
        multicopy = ["--scheme", "multicopy", "--chi", "0.8", "--copies", "2"]
        assert main(args + multicopy + ["-o", str(tmp_path / "o.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        # The run file cannot be written once the records are.
        assert main(args + ["-o", str(tmp_path / "missing_dir" / "o.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        # The sampler fails after its first chunk was written.
        chunks = cli.telegraph_chunks

        def fail_after_one(*a, **kw):
            yield next(chunks(*a, **kw))
            raise SingularControlError("stop")

        monkeypatch.setattr(cli, "telegraph_chunks", fail_after_one)
        monkeypatch.setattr(streams_mod, "CHUNK_UNIFORMS", budget(7))
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == 4
        assert list(tmp_path.iterdir()) == []
        capsys.readouterr()

    def test_singular_control(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(
            [
                "simulate",
                "--scheme", "dolinar_mc",
                "--q0", "0.5",
                "--trials", "5",
                "--seed", "1",
                "-o", str(out),
            ]
        )
        assert rc == 4
        assert "singular" in capsys.readouterr().err

    def test_solver_failure(self, tmp_path, capsys, monkeypatch):
        def no_bracket(f, lo, hi):
            raise BracketError("no sign change")

        # The optimizers look the solver up at call time, so the patch is seen.
        monkeypatch.setattr(rootfind_mod, "solve_bracketed", no_bracket)
        out = tmp_path / "o.csv"
        rc = main(["fig1", "--schemes", "improved_kennedy", "--points", "2", "-o", str(out)])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["improved_kennedy", "simplified_dolinar"])
    def test_a_root_worse_than_the_kennedy_point_is_a_solver_failure(
        self, scheme, tmp_path, capsys, monkeypatch
    ):
        # Far above the bracket, either receiver errs about as often as guessing.
        monkeypatch.setattr(rootfind_mod, "solve_bracketed",
                            lambda f, lo, hi: np.full(np.shape(lo), 50.0))
        out = tmp_path / "o.csv"
        assert main(["fig1", "--schemes", scheme, "--points", "2", "-o", str(out)]) == 3
        assert re.fullmatch(r"qsdr: solver failure: lane 0: stationary point \S+ does not "
                            r"improve on the Kennedy point 0\.1\n", capsys.readouterr().err)
        assert not out.exists()


class TestWholeDomain:
    """Runs at the edges of the domain complete or exit with a documented code:
    strong and weak signals, extreme or certain priors, extreme T and caps."""

    @pytest.mark.parametrize(
        "args",
        [
            ["fig1", "--schemes", "improved_kennedy", "--q0", "0.9999999999", "--points", "2"],
            ["fig3", "--q0", "0.7", "--gamma-sq-min", "0.5", "--gamma-sq-max", "100",
             "--points", "40"],
            ["fig3", "--q0", "0.999999"],
            ["fig1", "--q0", "1", "--schemes", "improved_kennedy"],
            # Weak signals and long pulses, where P_c rounds to q0 and the sd
            # optimum sits near 2.5 psi at q0 = 0.7.
            ["fig1", "--schemes", "simplified_dolinar", "--q0", "0.7",
             "--gamma-sq-min", "1e-12", "--gamma-sq-max", "1e-10"],
            ["fig3", "--q0", "0.7", "--gamma-sq-min", "1e-12", "--gamma-sq-max", "1e-10"],
            ["fig1", "--spacing", "linear", "--gamma-sq-min", "1e-300", "--points", "3"],
            ["fig3", "--q0", "0.7", "--T", "1e300", "--points", "3"],
            # A subnormal minority prior: q0/q1 overflows, ln q0 - ln q1 does not.
            ["fig1", "--q0", "5e-324", "--gamma-sq-min", "1", "--gamma-sq-max", "10",
             "--points", "3"],
        ],
    )
    def test_sweep_exits_zero(self, args, tmp_path):
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize(
        "args,code",
        [
            # A cap at or below psi is a constant law.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "1e-300",
              "--trials", "50"], 0),
            (["fig1", "--schemes", "dolinar_ode", "--q0", "0.5", "--u-max", "1e-300"], 0),
            # psi**2*T underflows: a pulse of no photons, on which the cap is the law.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--psi", "1e-200",
              "--u-max", "1", "--trials", "50"], 0),
            # (psi/u_max)**2 lies below the float spacing of 1, 4*psi**2 is normal:
            # the law falls to the cap at t = 1/4 and is finite from there on.
            (["fig1", "--q0", "0.5", "--schemes", "helstrom,dolinar_ode", "--u-max", "1",
              "--gamma-sq-min", "1e-18", "--gamma-sq-max", "1", "--points", "3"], 0),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--psi", "1e-9",
              "--u-max", "1", "--trials", "50"], 0),
            # A cap of 1e-200 per sqrt(s) over T = 1e-300 s: 0 to float precision.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "1e-200",
              "--T", "1e-300", "--trials", "100"], 0),
            # A floor of 0.5 s past a pulse of 1e-310 s: 5e309 pulse lengths.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--t-floor", "0.5",
              "--T", "1e-310", "--trials", "100"], 0),
        ],
    )
    def test_extreme_caps_exit_with_a_documented_code(self, args, code, tmp_path):
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == code

    @pytest.mark.parametrize("command", ["fig1", "fig3"])
    def test_top_of_the_float_range_reads_gamma_and_no_error(self, command, tmp_path):
        # Where 4*gamma**2 overflows the optimal displacement is gamma to float
        # precision and every error is 0; no RuntimeWarning on the way.
        out = tmp_path / "o.csv"
        assert main([command, "--gamma-sq-min", "1e300", "--gamma-sq-max", "1e308",
                     "-o", str(out)]) == 0
        header, rows = read_rows(out)
        for row in rows:
            assert row[1:] == ([row[0]] * 3 if command == "fig3" else ["0"] * 4)

    @pytest.mark.parametrize(
        "args,code",
        [
            # Amplitudes whose 4*psi**2 passes the float range, over pulses whose photon
            # number psi**2*T does not: the law runs on that number alone.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--psi", "1e154",
              "--T", "1e-300"], 0),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--psi", "1e200",
              "--T", "1e-300", "--trials", "50"], 0),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7",
              "--psi", "6.703903964971298e+153", "--T", "1e-300", "--trials", "50"], 0),
            (["fig1", "--schemes", "dolinar_ode", "--q0", "0.7", "--T", "1e-310"], 0),
            # A floor of 0.5 s covers the whole pulse.
            (["fig1", "--schemes", "dolinar_ode", "--q0", "0.7", "--t-floor", "0.5",
              "--T", "1e-310"], 0),
            # Equal priors make the uncapped law singular at any T.
            (["fig1", "--schemes", "dolinar_ode", "--T", "1e-310"], 4),
        ],
    )
    def test_law_past_its_rate_scale_in_seconds_answers(self, args, code, tmp_path, capsys):
        assert main(args + ["-o", str(tmp_path / "o.csv")]) == code
        assert "psi**2" not in capsys.readouterr().err

    @pytest.mark.parametrize("psi", ["1e-9", "3e-9"])
    def test_weak_capped_signal_estimate_agrees_with_the_analytic_value(self, psi, tmp_path):
        # Below psi = 1e-8 the click times keep their digits only where the
        # sampler's inverse forms ln(1 - R*R) as log1p(-R*R): the differences of
        # logarithms it used before lost them to about eps/(4*psi**2), z = 6.
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--psi", psi,
                     "--u-max", "1", "--trials", "20000", "-o", str(out)]) == 0
        header, (row,) = read_rows(out)
        assert abs(float(row[header.index("z_score")])) < 3.0

    def test_weak_signal_kennedy_displacement_matches_mpmath(self, tmp_path):
        # At q0 = 1/2 and gamma**2 = 1e-14 the optimum is beta**2 = 0.500000000000003;
        # a residual formed by cancelling subtraction wrote 0.499999999951.
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--q0", "0.5", "--gamma-sq-min", "1e-14", "--gamma-sq-max", "1",
                     "--points", "50", "-o", str(out)]) == 0
        header, rows = read_rows(out)
        got = float(rows[0][header.index("improved_kennedy_beta_sq")])
        with mpmath.workdps(50):
            g = mpmath.mpf(math.sqrt(1e-14))
            beta = mpmath.findroot(lambda b: 4 * b * g - mpmath.log((b + g) / (b - g)), 0.7)
            assert abs(got - beta**2) <= 1e-12

    def test_near_equal_priors_kennedy_displacement_matches_mpmath(self, tmp_path):
        # ln(q0/q1) is formed as log1p((q0 - q1)/q1): log(q0/q1) kept only the
        # digits of the rounded ratio, and this cell read 0.00284954437832.
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--q0", "0.5000000009313226", "--gamma-sq-min", "1e-20",
                     "--gamma-sq-max", "1e-14", "--points", "3", "-o", str(out)]) == 0
        header, rows = read_rows(out)
        # mpmath: 0.00284954436782618
        assert rows[0][header.index("improved_kennedy_beta_sq")] == "0.00284954436783"

    @pytest.mark.parametrize(
        "argv,cells",
        [(["--q0", "0.5", "--gamma-sq-min", "1e-16", "--gamma-sq-max", "1e-12",
           "--schemes", "helstrom,kennedy"], ["0.49999999", "0.4999999", "0.499999"]),
         (["--q0", "0.5000000074505806", "--gamma-sq-min", "1e-18", "--gamma-sq-max", "1e-16",
           "--schemes", "helstrom,improved_kennedy,simplified_dolinar,dolinar_ode"],
          ["0.499999992483", "0.499999991906", "0.49999998753"])],
    )
    def test_weak_signal_helstrom_column_writes_mpmath_cells(self, argv, cells, tmp_path):
        # The cells of 50-digit mpmath.  Formed from the overlap exp(-2*gamma_sq),
        # the column read 0.499999989463, 0.49999990004, 0.499999000011 and
        # 0.499999992549 (min(q0, q1), as if there were no signal) twice, then 0.499999987095.
        out = tmp_path / "o.csv"
        assert main(["fig1", *argv, "--points", "3", "-o", str(out)]) == 0
        header, rows = read_rows(out)
        for name in ("helstrom_pe", "dolinar_ode_pe"):
            if name in header:
                assert [row[header.index(name)] for row in rows] == cells

    def test_uncapped_law_runs_where_4_q0_q1_rounds_to_1(self, tmp_path):
        # R(0) = |q0 - q1| is a normal float there: only exactly equal priors are singular.
        q0 = ["--q0", "0.500000003"]
        out = tmp_path / "o.csv"
        assert main(["simulate", "--scheme", "dolinar_mc", *q0, "--trials", "2000",
                     "--seed", "1", "-o", str(out)]) == 0
        assert main(["fig1", *q0, "--schemes", "helstrom,dolinar_ode", "--points", "3",
                     "-o", str(out)]) == 0
        header, rows = read_rows(out)
        for row in rows:
            assert row[header.index("dolinar_ode_pe")] == row[header.index("helstrom_pe")]

    @pytest.mark.parametrize("q0", ["0", "1"])
    def test_certain_prior_nulls_the_certain_hypothesis(self, q0, tmp_path):
        # With one prior zero, P_c = exp(-(beta - gamma)**2): beta = gamma is optimal.
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--q0", q0, "-o", str(out)]) == 0
        header, rows = read_rows(out)
        for row in rows:
            assert row[header.index("improved_kennedy_beta_sq")] == row[0]
        out = tmp_path / "f1.csv"
        assert main(["fig1", "--q0", q0, "-o", str(out)]) == 0
        header, rows = read_rows(out)
        for row in rows:
            assert float(row[header.index("improved_kennedy_pe")]) == 0.0


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def edge_priors():
    """Priors over [0, 1], often 0, 1, 1/2 or 1/2 +- 2**-k, where 4*q0*q1
    rounds to 1 from k = 27 on."""
    near_half = st.builds(lambda k, s: 0.5 + s * 2.0**-k,
                          st.integers(1, 60), st.sampled_from([-1, 1]))
    return (st.sampled_from([0.0, 0.5, 1.0]) | near_half | st.floats(0.0, 1.0)).map(Priors)


@st.composite
def domain_argv(draw):
    """A fig1, fig3 or dolinar_mc run anywhere in the documented domain."""
    command = draw(st.sampled_from(["fig1", "fig3", "simulate"]))
    T = draw(log_uniform(1e-12, 1e12))
    argv = [command, "--q0", repr(draw(st.floats(0.0, 1.0))), "--T", repr(T)]
    cap = draw(st.none() | log_uniform(1e-300, 1e3))
    if cap is not None and command != "fig3":
        argv += ["--u-max", repr(cap)]
    if command == "simulate":
        argv += ["--scheme", "dolinar_mc", "--trials", "50"]
        # The photon number psi**2 * T (psi = 1 by default) stays within the
        # domain, so the number of clicks per trial stays small.
        if T > 400.0 or draw(st.booleans()):
            argv += ["--psi", repr(math.sqrt(draw(log_uniform(1e-300, 400.0)) / T))]
        floor = draw(st.none() | log_uniform(1e-12, 1e12))
        if floor is not None:
            argv += ["--t-floor", repr(floor)]
    else:
        lo, hi = sorted(draw(st.lists(log_uniform(1e-300, 400.0), min_size=2, max_size=2,
                                      unique=True)))
        argv += ["--gamma-sq-min", repr(lo), "--gamma-sq-max", repr(hi), "--points", "3"]
        if command == "fig1":
            argv += ["--schemes", "helstrom,kennedy,improved_kennedy,simplified_dolinar,dolinar_ode"]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=domain_argv())
@example(argv=["simulate", "--q0", "0.5", "--T", "1.0", "--u-max", "1.0", "--scheme",
               "dolinar_mc", "--trials", "50", "--psi", "1e-09"])
# The cap's switch of a lane below the cap would overflow: only capped lanes get one.
@example(argv=["fig1", "--q0", "0.7", "--T", "1e12", "--u-max", "1", "--gamma-sq-min", "1e-300",
               "--gamma-sq-max", "1e-299", "--points", "3", "--schemes", "dolinar_ode"])
@example(argv=["fig3", "--gamma-sq-min", "1e300", "--gamma-sq-max", "1e308"])
def test_every_run_in_the_domain_exits_with_a_documented_code(argv, tmp_path_factory):
    # ... and prints no numpy RuntimeWarning on the way.  Exit 2 may come
    # from the run, never from the spec: every generated argv resolves.
    # Exit 4 is for an uncapped optimal law: a capped law is finite wherever
    # each point's 4*psi**2 is a normal float.
    spec = resolved(argv)
    out = tmp_path_factory.mktemp("domain") / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["-o", str(out)])
    assert code in (0, 2, 3, 4)
    if spec.u_max is not None:
        psi = np.sqrt(spec.axis() / spec.T) if spec.command == "fig1" else np.array([spec.psi])
        if np.all(4.0 * psi * psi >= sys.float_info.min):
            assert code != 4


@settings(max_examples=150, deadline=None)
@given(priors=edge_priors(), ends=st.lists(log_uniform(1e-20, 1e6), min_size=2, max_size=2,
                                           unique=True), T=log_uniform(1e-3, 1e3))
# The top of the float range, where 4*gamma_sq overflows (psi**2 = gamma_sq/T stays below it).
@example(priors=Priors(0.7), ends=[1e300, 1e308], T=1e3)
def test_every_column_lies_between_the_bound_and_guessing(priors, ends, T, tmp_path_factory):
    # pe_helstrom <= pe <= min(q0, q1) to 1e-12 relative for every analytic column
    # and the uncapped optimal law (laws the user sets may rightly do worse than
    # guessing), on the library's own helstrom column at full precision, and to a few
    # units of 2**-1074 where the errors are subnormal and keep no relative digits.  A column
    # may instead raise what the CLI maps to a documented exit code: only exactly
    # equal priors make the uncapped law singular (exit 4).
    lo, hi = sorted(ends)
    fig1 = ["fig1", "--q0", repr(priors.q0), "--gamma-sq-min", repr(lo),
            "--gamma-sq-max", repr(hi), "--points", "7"]
    out = str(tmp_path_factory.mktemp("columns") / "o.csv")
    helstrom = cli.cmd_fig1(resolved([*fig1, "--schemes", "helstrom"]), out)["helstrom_pe"]
    guess = min(priors.q0, priors.q1)
    for scheme in ("kennedy", "improved_kennedy", "simplified_dolinar", "dolinar_ode"):
        argv = [*fig1, "--schemes", scheme]
        if scheme == "dolinar_ode":
            argv += ["--T", repr(T)]
        try:
            pe = cli.cmd_fig1(resolved(argv), out)[f"{scheme}_pe"]
        except SingularControlError:
            assert scheme == "dolinar_ode" and priors.q0 == priors.q1
            continue
        except (BracketError, rootfind_mod.ConvergenceError):
            continue  # exit 3
        tiny = 16 * 2.0**-1074
        assert np.all(pe >= helstrom * (1.0 - 1e-12) - tiny), scheme
        assert np.all(pe <= guess * (1.0 + 1e-12) + tiny), scheme


class TestPastTheFloatRange:
    """Argvs whose rates, intensities or axis points pass the float range.  Each
    writes the right number or its float limit, or exits 2 naming the limit; none
    prints a RuntimeWarning or the nan range error."""

    @staticmethod
    def run(argv, out):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(argv + ["-o", str(out)])

    def test_equal_priors_capped_past_the_rates_reads_the_bound(self, tmp_path):
        # The cap holds for about 1/(4*u_max**2): rates of 1e320 over 2.5e-321.  At
        # equal priors that slot keeps pe = 1/2, and the optimal law then rides the bound.
        out = tmp_path / "o.csv"
        assert self.run(["fig1", "--q0", "0.5", "--schemes", "dolinar_ode", "--u-max", "1e160"],
                        out) == 0
        _, rows = read_rows(out)
        spec = resolved(["fig1", "--q0", "0.5", "--schemes", "helstrom"])
        bound = cli.cmd_fig1(spec, str(tmp_path / "h.csv"))["helstrom_pe"]
        assert np.allclose([float(row[1]) for row in rows], bound, rtol=1e-11, atol=0.0)

    def test_constant_envelope_past_the_rates_relaxes_to_one_half(self, tmp_path):
        out = tmp_path / "o.csv"
        assert self.run(["fig1", "--q0", "0.7", "--schemes", "dolinar_ode", "--beta", "1e160"],
                        out) == 0
        _, rows = read_rows(out)
        assert {row[1] for row in rows} == {"0.5"}
        # The value simplified_dolinar_error gives such an envelope.
        assert qsdr.simplified_dolinar_error(Priors(0.7), 0.1, 1e160) == 0.5

    def test_sampler_refuses_rates_past_the_float_range(self, tmp_path, capsys):
        assert self.run(["simulate", "--scheme", "dolinar_mc", "--q0", "0.5",
                         "--u-max", "1e160", "--trials", "50"], tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == (
            "qsdr: invalid spec: a click rate (gamma +- u0)**2 past the float range cannot be "
            "sampled: gamma + |u0| must be at most 1.341e+154, got 1e+160\n")

    def test_cap_holding_for_less_than_a_float_time_exits_2(self, tmp_path, capsys):
        assert self.run(["fig1", "--q0", "0.5", "--schemes", "dolinar_ode", "--u-max", "1e200"],
                        tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == (
            "qsdr: invalid spec: a cap on a law diverging at t = 0 must be at most 3.2e+161: "
            "the time it holds, 1/(4*u_max**2), underflows, got 1e+200\n")

    def test_cap_that_never_binds_keeps_the_bytes(self, tmp_path):
        argv = ["fig1", "--q0", "0.7", "--schemes", "dolinar_ode"]
        capped, plain = tmp_path / "capped.csv", tmp_path / "plain.csv"
        assert self.run(argv + ["--u-max", "1e160"], capped) == 0
        assert self.run(argv, plain) == 0
        assert capped.read_bytes() == plain.read_bytes()

    def test_constant_envelope_on_an_amplitude_past_the_float_range_answers(self, tmp_path):
        # psi**2 = gamma_sq/T would pass the float range; gamma_sq = 1e300 does not, and
        # an envelope of 1e-5 on the unit pulse leaves both rates near gamma_sq: the
        # error relaxes to 1/2.
        out = tmp_path / "o.csv"
        assert self.run(["fig1", "--q0", "0.7", "--schemes", "dolinar_ode", "--beta", "1",
                         "--T", "1e-10", "--gamma-sq-max", "1e300"], out) == 0
        _, rows = read_rows(out)
        assert rows[-1] == ["1e+300", "0.5"]

    def test_sampler_hazard_past_the_float_range(self, tmp_path):
        # psi**2*T = 1e310: the mismatched branch's integrated rate at T is inf.
        out = tmp_path / "o.csv"
        assert self.run(["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--psi", "1e150",
                         "--T", "1e10", "--trials", "50"], out) == 0
        assert out.read_bytes() == SIM_HEADER + b"dolinar_mc,1,0,50,0,1,0\n"

    @pytest.mark.parametrize("fmt,cells", [("csv", ["1e+305", "inf", "inf"]),
                                           ("json", [1e305, None, None])])
    def test_envelope_intensity_past_the_float_range_is_its_limit(self, fmt, cells, tmp_path):
        out = tmp_path / f"o.{fmt}"
        assert self.run(["fig3", "--gamma-sq-min", "1e300", "--gamma-sq-max", "1.79e308",
                         "--T", "1e-5", "--points", "3", "--format", fmt], out) == 0
        if fmt == "csv":
            _, rows = read_rows(out)
            assert [row[3] for row in rows] == cells
        else:
            rows = json.loads(out.read_text())["rows"]
            assert [row["simplified_dolinar_beta_sq"] for row in rows] == cells

    @pytest.mark.parametrize("command", ["fig1", "fig3"])
    def test_log_axis_up_to_the_float_maximum(self, command, tmp_path):
        out = tmp_path / "o.csv"
        assert self.run([command, "--gamma-sq-min", "1", "--gamma-sq-max",
                         "1.7976931348623157e308", "--points", "3"], out) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows] == ["1", "1.34078079299e+154", "1.79769313486e+308"]

    def test_log_axis_rounding_a_point_past_the_float_range_exits_2(self, tmp_path, capsys):
        assert self.run(["fig1", "--gamma-sq-min", "1.7976931348623155e308", "--gamma-sq-max",
                         "1.7976931348623157e308", "--points", "3"], tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == (
            "qsdr: invalid spec: log spacing rounds a gamma_sq point past the float range "
            "(1.798e+308); linear spacing does not, got inf\n")

    def test_log_axis_near_the_float_maximum_keeps_its_points_in_range(self, tmp_path):
        # geomspace rounds the middle power to 1.7976931348620926e308, below the minimum.
        lo, hi = 1.7976931348621359e308, 1.7976931348623157e308
        argv = ["fig1", "--schemes", "helstrom", "--gamma-sq-min", repr(lo),
                "--gamma-sq-max", repr(hi), "--points", "3"]
        assert resolved(argv).axis().tolist() == [lo, lo, hi]
        assert self.run(argv, tmp_path / "o.csv") == 0


@settings(max_examples=300, deadline=None)
@given(lo=log_uniform(1e-300, 1.79e308), ratio=log_uniform(1e-16, 1e300),
       points=st.integers(2, 60), spacing=st.sampled_from(["log", "linear"]))
@example(lo=1e9, ratio=1e300, points=13, spacing="linear")  # the last step overflows
def test_every_axis_point_lies_in_range_and_never_decreases(lo, ratio, points, spacing):
    hi = max(min(lo * (1.0 + ratio), 1.7976931348623157e308), math.nextafter(lo, math.inf))
    spec = cli.SweepSpec("fig1", ("helstrom",), gamma_sq_min=lo, gamma_sq_max=hi, points=points,
                         spacing=spacing, q0=0.5, seed=0, format="csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            g = spec.axis()
        except ValueError as exc:  # a power rounded past the float range: exit 2
            assert "past the float range" in str(exc) and spacing == "log"
            return
    assert g[0] == lo and g[-1] == hi and len(g) == points
    assert (np.diff(g) >= 0.0).all() and g.min() >= lo and g.max() <= hi


class TestNoNumericalIntegration:
    """Every CLI path computes P_c in closed form; RK45 is only the tests' oracle."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--schemes", "helstrom,dolinar_ode", "--q0", "0.7", "--points", "4"],
            ["fig1", "--schemes", "dolinar_ode", "--q0", "0.5", "--u-max", "8", "--points", "4"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
             "--trials", "200"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--t-floor", "0.02",
             "--trials", "200"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--beta", "0.8",
             "--trials", "200"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--trials", "200"],
        ],
        ids=["fig1", "fig1_cap", "cap", "floor", "constant", "exact"],
    )
    def test_solve_ivp_is_never_called(self, argv, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(qsdr.dolinar, "solve_ivp", refuse)
        assert main([*argv, "-o", str(tmp_path / "o.csv")]) == 0


class TestNoScipy:
    """No CLI path imports scipy (only the tests' RK45 oracle needs it), argparse or
    locale, and neither the import nor a run loads dataclasses or copy.  The
    first run, not the import, freezes the import heap, and only once."""

    # json is imported after qsdr.cli, which loads it only for JSON output.
    SCRIPT = (
        "import gc, sys\n"
        "BANNED = ('scipy', 'argparse', 'gettext', 'locale', 'dataclasses', 'copy')\n"
        "banned = lambda: sorted(m for m in sys.modules if m.split('.')[0] in BANNED)\n"
        "import qsdr.cli\n"
        "report = {'numpy.random': 'numpy.random' in sys.modules, 'json': 'json' in sys.modules,\n"
        "          'import': banned(), 'frozen': gc.get_freeze_count(), 'runs': []}\n"
        "import json\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    rc = qsdr.cli.main(argv)\n"
        "    report['runs'].append([argv, rc, banned(), gc.get_freeze_count()])\n"
        "print(json.dumps(report))\n"
    )

    def test_cli_runs_never_import_scipy(self, tmp_path):
        analytic = "helstrom,kennedy,improved_kennedy,simplified_dolinar,dolinar_ode"
        runs = [
            ["fig1"],
            ["fig1", "--schemes", analytic, "--q0", "0.7"],
            ["fig1", "--schemes", analytic, "--q0", "0.5", "--u-max", "8"],
            ["fig3"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
             "--trials", "200", "--trajectories", str(tmp_path / "traj.csv")],
            ["simulate", "--scheme", "multicopy", "--q0", "0.7", "--theta", "0.2",
             "--copies", "20", "--trials", "200"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
             "--trials", "200", "--format", "json", "--trajectories", str(tmp_path / "traj.json")],
        ]
        argvs = [[*argv, "-o", str(tmp_path / f"o{i}.csv")] for i, argv in enumerate(runs)]
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        # Loaded with the package, not inside the first seeded run.
        assert report["numpy.random"]
        assert not report["json"]
        assert report["import"] == []
        # Nor does the option parsing load argparse, or locale through gettext.
        for argv, rc, banned, _ in report["runs"]:
            assert rc == 0, argv
            assert banned == [], (argv, banned[:5])
        # The import freezes nothing; the first run freezes, the later ones add nothing.
        assert report["frozen"] == 0
        frozen = [run[3] for run in report["runs"]]
        assert frozen[0] > 0
        assert frozen == [frozen[0]] * len(frozen)

    def test_later_runs_do_not_count_the_frozen_heap(self, monkeypatch, tmp_path):
        # gc.get_freeze_count() walks every frozen object (some 21k after the first
        # run), so a run after the first may neither freeze nor count.
        def refuse():
            raise AssertionError("the frozen heap was frozen or counted again")

        monkeypatch.setattr(cli, "_heap_frozen", True)
        monkeypatch.setattr(cli.gc, "freeze", refuse)
        monkeypatch.setattr(cli.gc, "get_freeze_count", refuse)
        assert main(["fig3", "--points", "2", "-o", str(tmp_path / "o.csv")]) == 0


class TestMemory:
    # The child's own peak is VmHWM, where /proc has it: Linux carries
    # ru_maxrss across exec, so there it would also cover the RSS of this
    # test process at the fork.  ru_maxrss is in kilobytes on Linux and in
    # bytes on macOS.
    SCRIPT = (
        "import resource, sys\n"
        "from qsdr.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        peak = next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    peak //= 1024 if sys.platform == 'darwin' else 1\n"
        "print(rc, peak)\n"
    )

    def _peak_mb(self, tmp_path, argv, trials):
        out = tmp_path / f"m{trials}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-c", self.SCRIPT, *argv,
                "--trials", str(trials),
                "--seed", "1",
                "-o", str(out),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=300,
        )
        rc, peak = proc.stdout.split()
        assert rc == "0", proc.stderr
        return int(peak) / 2**10

    def test_multicopy_peak_rss_is_flat_in_trials(self, tmp_path):
        # Each run in a fresh interpreter, so each peak is that run's own.
        argv = ["simulate", "--scheme", "multicopy", "--q0", "0.7", "--theta", "0.2",
                "--copies", "20"]
        small = self._peak_mb(tmp_path, argv, 10_000)
        large = self._peak_mb(tmp_path, argv, 1_000_000)
        assert large - small < 10.0, (small, large)

    def test_telegraph_peak_rss_is_flat_in_trials_with_trajectories(self, tmp_path):
        for fmt in ("csv", "json"):
            argv = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                    "--format", fmt, "--trajectories", str(tmp_path / f"t.{fmt}")]
            small = self._peak_mb(tmp_path, argv, 10_000)
            large = self._peak_mb(tmp_path, argv, 100_000)
            assert large - small < 10.0, (fmt, small, large)


class TestEntryPoint:
    def test_module_is_runnable(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "qsdr.cli",
                "fig1", "--points", "2", "--schemes", "kennedy", "-o", str(out),
            ],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert out.read_bytes().startswith(b"gamma_sq,kennedy_pe\n")

    def test_module_prints_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsdr.cli", "fig1", "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "--gamma-sq-min" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("qsdr") is None,
        reason="the qsdr console script is not on PATH; install it with `pip install -e .`",
    )
    def test_console_script(self, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            ["qsdr", "fig3", "--points", "2", "-o", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.read_bytes().startswith(FIG3_HEADER)

    def test_console_script_target(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"qsdr": "qsdr.cli:main"}
        module, attr = scripts["qsdr"].split(":")
        # What the generated console-script wrapper runs.
        wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "fig3", "--points", "2", "-o", str(out)],
            capture_output=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert out.read_bytes().startswith(FIG3_HEADER)

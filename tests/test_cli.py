"""Command-line interface: formats, determinism, resolution, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsdr
import qsdr._streams as streams_mod
import qsdr.cli as cli
from qsdr import BracketError, Priors, SingularControlError, simulate_telegraph
from qsdr.cli import main
from test_streams import TELEGRAPH_LAWS, budget

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
        cfg.write_text("control = constant\nbeta = 1.2\n")
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
        law = qsdr.ControlLaw.dolinar_optimal(pr, 1.0, t_floor=0.2)
        ode = qsdr.evolve_pc_general(pr, 1.0, law.u0, law.u1, 1.0, tol=1e-12).final.pc(pr)
        assert abs(float(cells[5]) - ode) < 1e-9
        assert abs(ode - qsdr.helstrom_trajectory(pr, 1.0, 1.0)) > 1e-3

    def test_dolinar_reruns_identically(self, tmp_path):
        args = [
            "simulate",
            "--scheme", "dolinar_mc",
            "--q0", "0.5",
            "--control", "capped_dolinar",
            "--u-max", "8",
            "--trials", "300",
            "--seed", "13",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        spec, _, _ = cli._resolve(cli._build_parser().parse_args(
            args + ["-o", "o", "--trajectories", str(traj)]), {})
        pr = Priors(q0)
        want = render_trajectories(
            spec, simulate_telegraph(pr, 1.0, law, 1.0, 60, 4, keep_trajectories=True).trajectories
        )
        # TELEGRAPH_LAWS holds laws the options cannot spell (ten slots).
        monkeypatch.setattr(cli, "_dolinar_law", lambda spec, priors, psi: law)
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


    def test_infinite_z_score_is_strict_json_null(self, tmp_path):
        # Every trial right against an analytic value below one: zero
        # standard error and an infinite z_score.
        base = [
            "simulate",
            "--scheme", "multicopy",
            "--q0", "0.7",
            "--theta", "0.2",
            "--copies", "20",
            "--trials", "20",
            "--seed", "1",
        ]
        json_p, csv_p = tmp_path / "o.json", tmp_path / "o.csv"
        assert main(base + ["--format", "json", "-o", str(json_p)]) == 0
        assert main(base + ["-o", str(csv_p)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        (row,) = json.loads(json_p.read_text(), parse_constant=reject)["rows"]
        assert row["stderr"] == 0.0 and row["estimate"] == 1.0
        assert row["z_score"] is None
        assert csv_p.read_bytes().startswith(SIM_HEADER)
        assert read_rows(csv_p)[1][0][6] == "inf"


    def test_unserializable_record_leaves_no_file(self, tmp_path):
        spec = cli.SweepSpec("fig3", ("kennedy",), 0.1, 1.0, 2, "log", 0.5, 1.0, 0, 1, "json")
        out = tmp_path / "o.json"
        with pytest.raises(ValueError):
            cli._write_json(str(out), spec, "rows", [{"x": math.inf}])
        assert not out.exists()


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
            (["simulate", "--scheme", "multicopy", "--theta", "0.2", "--copies", "2",
              "--trials", "5", "--beta", "inf", "--format", "json"], "beta"),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--trials", "5",
              "--u-max", "inf"], "u_max"),
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--trials", "5",
              "--psi", "nan"], "psi"),
            (["fig3", "--points", "2", "--T", "inf"], "T"),
            (["fig1", "--points", "2", "--gamma-sq-max", "inf"], "gamma_sq_max"),
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
        ],
        ids=["trials", "chi"],
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
        # fig3's simplified_dolinar_beta_sq is an envelope intensity, so it
        # depends on T; every fig1 column depends on gamma_sq alone.
        args = ["fig3", "--points", "3", "--q0", "0.7"]
        assert main(args + ["--config", str(cfg), "-o", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--T", "4", "-o", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert main(args + ["-o", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("points = 2\ngamma_sq_mn = 0.2\n")
        out = tmp_path / "o.csv"
        assert main(["fig1", "--config", str(cfg), "-o", str(out)]) == 2
        assert "gamma_sq_mn" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points 2\n")
        assert main(["fig1", "--config", str(cfg), "-o", "x.csv"]) == 2

    def test_output_required(self, tmp_path):
        assert main(["fig1", "--points", "2"]) == 2


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

    def test_failed_run_removes_its_partial_trajectory_file(self, tmp_path, monkeypatch, capsys):
        args = ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8",
                "--trials", "50", "--trajectories", str(tmp_path / "t.csv")]
        # A scheme without click records fails before the file is opened.
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
        def no_bracket(priors, gamma):
            raise BracketError("no sign change")

        # SCHEMES looks the optimizer up at call time, so the patch is seen.
        monkeypatch.setattr(cli, "optimal_beta_ik", no_bracket)
        out = tmp_path / "o.csv"
        rc = main(["fig1", "--schemes", "improved_kennedy", "--points", "2", "-o", str(out)])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err


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
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "1e-300"], 0),
            (["fig1", "--schemes", "dolinar_ode", "--q0", "0.5", "--u-max", "1e-300"], 0),
            # psi**2 underflows: the switch time is finite, the law beyond it is not.
            (["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--psi", "1e-200",
              "--u-max", "1"], 4),
        ],
    )
    def test_extreme_caps_exit_with_a_documented_code(self, args, code, tmp_path):
        assert main(args + ["--trials", "50", "-o", str(tmp_path / "o.csv")]) == code

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


@st.composite
def domain_argv(draw):
    """A fig1, fig3 or dolinar_mc run anywhere in the documented domain."""
    command = draw(st.sampled_from(["fig1", "fig3", "simulate"]))
    T = draw(log_uniform(1e-12, 1e12))
    argv = [command, "--q0", repr(draw(st.floats(0.0, 1.0))), "--T", repr(T)]
    cap = draw(st.none() | log_uniform(1e-300, 1e3))
    if cap is not None:
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
def test_every_run_in_the_domain_exits_with_a_documented_code(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("domain") / "o.csv"
    assert main(argv + ["-o", str(out)]) in (0, 2, 3, 4)


class TestNoNumericalIntegration:
    """Every CLI path computes P_c in closed form; RK45 is only the oracle."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--schemes", "helstrom,dolinar_ode", "--q0", "0.7", "--points", "4"],
            ["fig1", "--schemes", "dolinar_ode", "--q0", "0.5", "--u-max", "8", "--points", "4"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--u-max", "8"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.5", "--t-floor", "0.02"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.7", "--control", "constant",
             "--beta", "0.8"],
            ["simulate", "--scheme", "dolinar_mc", "--q0", "0.7"],
        ],
        ids=["fig1", "fig1_cap", "cap", "floor", "constant", "exact"],
    )
    def test_solve_ivp_is_never_called(self, argv, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr(qsdr.dolinar, "solve_ivp", refuse)
        assert main([*argv, "--trials", "200", "-o", str(tmp_path / "o.csv")]) == 0


class TestNoScipy:
    """No CLI path imports scipy; only the RK45 oracle needs it."""

    SCRIPT = (
        "import json, sys\n"
        "import qsdr.cli\n"
        "report = {'numpy.random': 'numpy.random' in sys.modules, 'runs': []}\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    rc = qsdr.cli.main(argv)\n"
        "    scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    report['runs'].append([argv, rc, scipy])\n"
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
        for argv, rc, scipy in report["runs"]:
            assert rc == 0, argv
            assert scipy == [], (argv, scipy[:5])


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

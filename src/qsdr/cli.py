"""Command-line front end: receiver sweeps and seeded Monte Carlo runs.

Subcommands
-----------
fig1      error probability of each receiver vs mean photon number
fig3      optimal displacement intensity of each receiver vs mean photon number
simulate  one seeded Monte Carlo run cross-checked against its analytic value

Outputs are deterministic functions of the resolved spec and the seed: CSV
with an exact documented header, LF line endings and 12 significant digits,
or JSON carrying the same numbers plus the spec and tool version.  Option
values resolve as command line > config file > environment (seed only) >
built-in defaults; the config file is flat ``key = value`` text (see
README).

Exit codes: 0 success, 2 invalid spec or I/O failure, 3 solver failure,
4 singular control request (equal priors with an uncapped optimal law).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import __version__
from .dolinar import (
    ControlLaw,
    SingularControlError,
    TelegraphResult,
    evolve_pc,
    simulate_telegraph,
    telegraph_chunks,
)
from .dolinar import helstrom_trajectory  # not called here; perfbench/spans.py traces it
from .multicopy import exact_adaptive_pc, simulate_adaptive
from .rootfind import (
    BracketError,
    ConvergenceError,
    optimal_beta_ik,
    optimal_beta_sd,
)
from .statemath import (
    CoherentBinary,
    Priors,
    QubitPair,
    coherent_overlap,
    helstrom_bound,  # not called here; perfbench/spans.py traces it
    helstrom_error,
    improved_kennedy_error,
    improved_kennedy_pc,  # not called here; perfbench/spans.py traces it
    kennedy_error,
    kennedy_pc,  # not called here; perfbench/spans.py traces it
    simplified_dolinar_error,
    simplified_dolinar_pc,  # not called here; perfbench/spans.py traces it
)

__all__ = ["main", "SweepSpec", "cmd_fig1", "cmd_fig3", "cmd_simulate", "SEED_ENV_VAR"]

SEED_ENV_VAR = "QSDR_SEED"

EXIT_OK = 0
EXIT_INVALID_SPEC = 2
EXIT_SOLVER_FAILURE = 3
EXIT_SINGULAR_CONTROL = 4

CONTROL_KINDS = ("dolinar_optimal", "constant", "capped_dolinar")

DEFAULTS = {
    "gamma_sq_min": 0.01,
    "gamma_sq_max": 2.0,
    "points": 30,
    "spacing": "log",
    "q0": 0.5,
    "T": 1.0,
    "trials": 10000,
    "format": "csv",
    "psi": 1.0,
    "control": "dolinar_optimal",
}


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved parameters of one CLI invocation.

    Sweep fields apply to fig1/fig3; the optional tail fields configure the
    Monte Carlo schemes of ``simulate``.  ``seed`` (non-negative) feeds
    every stochastic scheme; analytic sweeps ignore it but still record it
    in JSON output.
    """

    command: str
    schemes: tuple[str, ...]
    gamma_sq_min: float
    gamma_sq_max: float
    points: int
    spacing: str
    q0: float
    T: float
    seed: int
    trials: int
    format: str
    u_max: float | None = None
    t_floor: float | None = None
    control: str | None = None
    beta: float | None = None
    psi: float | None = None
    theta: float | None = None
    copies: int | None = None

    def __post_init__(self) -> None:
        # argparse and float() accept inf and nan; no parameter takes them.
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if len(self.schemes) == 0:
            raise ValueError("scheme list must not be empty")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown scheme(s) {unknown}; known: {', '.join(SCHEMES)}")
        if self.command in ("fig1", "fig3"):
            if not 0.0 < self.gamma_sq_min < self.gamma_sq_max:
                raise ValueError(
                    "sweep needs 0 < gamma_sq_min < gamma_sq_max, got "
                    f"[{self.gamma_sq_min}, {self.gamma_sq_max}]"
                )
            if self.points < 2:
                raise ValueError(f"points must be >= 2, got {self.points}")
            if self.spacing not in ("log", "linear"):
                raise ValueError(f"spacing must be log or linear, got {self.spacing}")
        if any(s in SIM_SCHEMES for s in self.schemes) and self.trials < 1:
            raise ValueError(f"trials must be >= 1 for Monte Carlo schemes, got {self.trials}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {self.q0}")
        if self.T <= 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")
        # Checked here, whatever the command, so --seed and QSDR_SEED fail
        # the same way before any scheme runs.
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format}")

    @property
    def priors(self) -> Priors:
        return Priors(self.q0)

    def axis(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.gamma_sq_min, self.gamma_sq_max, self.points)
        return np.linspace(self.gamma_sq_min, self.gamma_sq_max, self.points)

    def public_dict(self) -> dict:
        """Spec fields for embedding in output files (None entries dropped)."""
        d = asdict(self)
        d["schemes"] = list(self.schemes)
        return {k: v for k, v in d.items() if v is not None}


def _sig12(x: float) -> float:
    """Round to the 12 significant digits the CSV format documents."""
    return float(f"{x:.12g}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        raise TypeError("no boolean columns")
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{x:.12g}"


def _write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    # Assemble first so a formatting error cannot leave a partial file.
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(row[c]) for c in header) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_text(spec: SweepSpec, key: str, records: list) -> str:
    doc = {
        "spec": spec.public_dict(),
        key: records,
        "tool_version": __version__,
        "seed": spec.seed,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _write_json(path: str, spec: SweepSpec, key: str, records: list) -> None:
    # Serialized first so a value strict JSON cannot hold leaves no file.
    text = _json_text(spec, key, records)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_value(v):
    # The CSV's 12-digit rounding; strict JSON has no infinity, so a
    # non-finite float (z_score at zero standard error) is written as null.
    if not isinstance(v, float):
        return v
    return _sig12(v) if math.isfinite(v) else None


def _write_rows(path: str, spec: SweepSpec, header: list[str], rows: list[dict]) -> None:
    if spec.format == "csv":
        _write_csv(path, header, rows)
    else:
        rounded = [{k: _json_value(v) for k, v in row.items()} for row in rows]
        _write_json(path, spec, "rows", rounded)


def _dolinar_law(spec: SweepSpec, priors: Priors, psi: float) -> ControlLaw:
    kind = spec.control or "dolinar_optimal"
    if kind not in CONTROL_KINDS:
        raise ValueError(f"unknown control kind {kind!r}; known: {', '.join(CONTROL_KINDS)}")
    if kind == "constant":
        if spec.beta is None:
            raise ValueError("control=constant requires --beta")
        return ControlLaw.constant(spec.beta)
    if kind == "capped_dolinar" and spec.u_max is None:
        raise ValueError("control=capped_dolinar requires --u-max")
    # A capped law is the optimal law with u_max set.
    return ControlLaw.dolinar_optimal(priors, psi, t_floor=spec.t_floor, u_max=spec.u_max)


def _row_seeds(seed: int, n: int) -> list[int]:
    # Independent per-row seeds, reproducible from the master seed alone.
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint64)]


def _simulate_dolinar_mc(spec: SweepSpec, export):
    if spec.psi is None:
        raise ValueError("dolinar_mc requires --psi")
    priors = spec.priors
    law = _dolinar_law(spec, priors, spec.psi)
    chunks = telegraph_chunks(priors, spec.psi, law, spec.T, spec.trials, spec.seed)
    result = TelegraphResult.from_chunks(chunks if export is None else export(chunks))
    analytic = evolve_pc(priors, spec.psi, law, spec.T, sample_times=()).final.pc(priors)
    return result.estimate, result.stderr, analytic


def _simulate_multicopy(spec: SweepSpec, export):
    if spec.theta is None:
        raise ValueError("multicopy requires --theta or --chi")
    if spec.copies is None:
        raise ValueError("multicopy requires --copies")
    priors = spec.priors
    estimate, stderr = simulate_adaptive(
        priors, spec.theta, spec.copies, spec.trials, spec.seed
    )
    return estimate, stderr, exact_adaptive_pc(priors, spec.theta, spec.copies)


class _Point(NamedTuple):
    """One sweep point, as the fig1 and fig3 columns see it."""

    spec: SweepSpec
    priors: Priors
    ranked: Priors  # relabeled so that q0 >= q1, for the photon-counting receivers
    g: float  # the axis value gamma_sq itself
    psi: float
    gamma: float
    T: float
    seed: int | None  # row seed of fig1's Monte Carlo column


def _dolinar_ode_pe(p: _Point) -> float:
    law = _dolinar_law(p.spec, p.priors, p.psi)
    return evolve_pc(p.priors, p.psi, law, p.T, sample_times=()).final.pe(p.priors)


def _dolinar_mc_pe(p: _Point) -> float:
    law = _dolinar_law(p.spec, p.priors, p.psi)
    return 1.0 - simulate_telegraph(p.priors, p.psi, law, p.T, p.spec.trials, p.seed).estimate


# One entry per scheme, in canonical column order (selections keep this
# order, not the flag order).  "pe" (fig1) and "beta_sq" (fig3) map a _Point
# to the column's value; "simulate" maps (spec, export) to (estimate,
# stderr, analytic), where export, if not None (dolinar_mc only), passes
# the sampler's chunks on and writes their click records.  Entries look library functions up as
# module globals at call time, so a wrapper set on a qsdr.cli attribute
# sees every call.
SCHEMES = {
    "helstrom": {"pe": lambda p: helstrom_error(p.priors, coherent_overlap(p.g))},
    # Nulls the likelier hypothesis; fig3's reference line.
    "kennedy": {"pe": lambda p: kennedy_error(p.ranked, p.g), "beta_sq": lambda p: p.g},
    # The optimized receivers need q0 >= q1; pe and |beta|**2 ignore labels.
    "improved_kennedy": {
        "pe": lambda p: improved_kennedy_error(
            p.ranked, p.gamma, optimal_beta_ik(p.ranked, p.gamma)
        ),
        "beta_sq": lambda p: optimal_beta_ik(p.ranked, p.gamma) ** 2,
    },
    "simplified_dolinar": {
        "pe": lambda p: simplified_dolinar_error(
            p.ranked, p.psi, optimal_beta_sd(p.ranked, p.psi, p.T), p.T
        ),
        "beta_sq": lambda p: optimal_beta_sd(p.ranked, p.psi, p.T) ** 2,
    },
    "dolinar_ode": {"pe": _dolinar_ode_pe},
    "dolinar_mc": {"pe": _dolinar_mc_pe, "simulate": _simulate_dolinar_mc},
    "multicopy": {"simulate": _simulate_multicopy},
}
FIG1_SCHEMES = tuple(name for name, s in SCHEMES.items() if "pe" in s)
FIG3_SCHEMES = tuple(name for name, s in SCHEMES.items() if "beta_sq" in s)
SIM_SCHEMES = tuple(name for name, s in SCHEMES.items() if "simulate" in s)


def _sweep(spec: SweepSpec, output: str, kind: str) -> list[dict]:
    # One row per gamma_sq value, one column <scheme>_<kind> per selected scheme.
    columns = {name: s[kind] for name, s in SCHEMES.items() if kind in s}
    bad = [s for s in spec.schemes if s not in columns]
    if bad:
        raise ValueError(f"{spec.command} supports {', '.join(columns)}; got {bad}")
    selected = [s for s in columns if s in spec.schemes]
    # Row seeds feed fig1's Monte Carlo column; fig3 has none.
    seeds = _row_seeds(spec.seed, spec.points) if kind == "pe" else [None] * spec.points
    priors = spec.priors
    ranked = priors.dominant()
    rows = []
    for g, seed in zip(spec.axis(), seeds):
        g = float(g)
        source = CoherentBinary.from_mean_photons(g, spec.T)
        point = _Point(spec, priors, ranked, g, source.psi, source.gamma, spec.T, seed)
        row: dict = {"gamma_sq": g}
        for name in selected:
            row[f"{name}_{kind}"] = columns[name](point)
        rows.append(row)
    header = ["gamma_sq"] + [f"{s}_{kind}" for s in selected]
    _write_rows(output, spec, header, rows)
    return rows


def cmd_fig1(spec: SweepSpec, output: str) -> list[dict]:
    """Error-probability sweep: one row per gamma_sq value."""
    return _sweep(spec, output, "pe")


def cmd_fig3(spec: SweepSpec, output: str) -> list[dict]:
    """Optimal displacement intensity sweep: |beta|**2 per gamma_sq value."""
    return _sweep(spec, output, "beta_sq")


def cmd_simulate(
    spec: SweepSpec, output: str, trajectories_path: str | None = None
) -> dict:
    """One Monte Carlo run with its analytic cross-check."""
    if len(spec.schemes) != 1 or spec.schemes[0] not in SIM_SCHEMES:
        raise ValueError(f"simulate runs exactly one of {', '.join(SIM_SCHEMES)}")
    scheme = spec.schemes[0]
    if trajectories_path is not None and scheme != "dolinar_mc":
        raise ValueError("--trajectories applies only to dolinar_mc")
    with _trajectory_export(trajectories_path, spec) as export:
        estimate, stderr, analytic = SCHEMES[scheme]["simulate"](spec, export)
        diff = abs(estimate - analytic)
        if diff == 0.0:
            z = 0.0
        elif stderr > 0.0:
            z = diff / stderr
        else:
            z = math.inf
        row = {
            "scheme": scheme,
            "estimate": estimate,
            "stderr": stderr,
            "trials": spec.trials,
            "seed": spec.seed,
            "analytic": analytic,
            "z_score": z,
        }
        header = ["scheme", "estimate", "stderr", "trials", "seed", "analytic", "z_score"]
        _write_rows(output, spec, header, [row])
    return row


@contextlib.contextmanager
def _trajectory_export(path: str | None, spec: SweepSpec):
    """Open the trajectory file before the run starts and yield the filter
    that streams the sampler's chunks into it (None without a path).  A run
    that fails removes the partial file."""
    if path is None:
        yield None
        return
    fh = open(path, "w", newline="")
    try:
        with fh:  # a failed flush at close also removes the file
            yield lambda chunks: _stream_trajectories(fh, spec, chunks)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


# Trials formatted per write: one batch's text is all the export holds.
_BATCH = 1024


def _stream_trajectories(fh, spec: SweepSpec, chunks):
    """Write each chunk's click records, then pass the chunk on.

    A batch of trials is one template, filled by one ``%`` call with the
    batch's click times: ``'%.12g' % t`` is ``f"{t:.12g}"``, and ``'%r'`` of
    the 12-digit float is what ``json.dumps`` writes.  A trial's line after
    its number is built once per key ``4*clicks + 2*a + z_final``.  The JSON
    document is the one :func:`_write_json` writes, framing included.
    """
    if spec.format == "csv":
        head, tail, sep, opener = "trial,a,z_final,click_times\n", "", "", ""
        line = lambda a, z, k: f",{a},{z},{';'.join(['%.12g'] * k)}\n"
        values = tuple
    else:
        mark = "\0"  # stands for the records in the document's framing
        head, tail = _json_text(spec, "trajectories", [mark]).split(json.dumps(mark))
        sep, opener = ",\n    ", '{\n      "trial": '
        line = lambda a, z, k: (
            f',\n      "a": {a},\n      "z_final": {z},\n      "click_times": '
            + ("[\n        " + ",\n        ".join(["%r"] * k) + "\n      ]" if k else "[]")
            + "\n    }"
        )
        values = lambda ts: tuple(map(_sig12, ts))
    fh.write(head)
    lead, lines = "", {}
    for i0, tr in chunks:
        edges = tr.offsets.tolist()
        keys = (4 * np.diff(tr.offsets) + 2 * tr.a + tr.z_final).tolist()
        for k in set(keys).difference(lines):
            lines[k] = line(k >> 1 & 1, k & 1, k >> 2)
        for lo in range(0, len(keys), _BATCH):
            hi = min(lo + _BATCH, len(keys))
            text = sep.join(
                [f"{opener}{i}{lines[k]}" for i, k in zip(range(i0 + lo, i0 + hi), keys[lo:hi])]
            )
            fh.write(lead + text % values(tr.times[edges[lo]:edges[hi]].tolist()))
            lead = sep
        yield i0, tr
    fh.write(tail)


def read_config(path: str) -> dict[str, str]:
    """Parse the flat ``key = value`` config format (# starts a comment)."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdr",
        description="Binary quantum-state discrimination receivers.",
        epilog=f"Seeds default to ${SEED_ENV_VAR} when set. See README for formats.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output", "-o", help="output file path (required)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--q0", type=float, default=None)
        p.add_argument("--T", type=float, default=None)

    def add_sweep(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--gamma-sq-min", type=float, default=None)
        p.add_argument("--gamma-sq-max", type=float, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--spacing", choices=("log", "linear"), default=None)
        p.add_argument("--schemes", default=None, help="comma separated scheme list")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--u-max", type=float, default=None)
        p.add_argument("--t-floor", type=float, default=None)

    p1 = sub.add_parser("fig1", help="error probability vs mean photon number")
    add_sweep(p1)
    p3 = sub.add_parser("fig3", help="optimal displacement intensity sweep")
    add_sweep(p3)

    ps = sub.add_parser("simulate", help="seeded Monte Carlo with analytic cross-check")
    add_common(ps)
    ps.add_argument("--scheme", choices=SIM_SCHEMES, default=None)
    ps.add_argument("--trials", type=int, default=None)
    ps.add_argument("--psi", type=float, default=None)
    ps.add_argument(
        "--control", choices=CONTROL_KINDS, default=None, help="dolinar_mc law"
    )
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--u-max", type=float, default=None)
    ps.add_argument("--t-floor", type=float, default=None)
    ps.add_argument("--theta", type=float, default=None)
    ps.add_argument("--chi", type=float, default=None)
    ps.add_argument("--copies", type=int, default=None)
    ps.add_argument(
        "--trajectories", default=None, help="also export per-trial click records"
    )
    return parser


def _resolve(ns, cfg: dict[str, str]):
    """Merge CLI > config > env (seed) > defaults into a SweepSpec; a config
    key that names no option of the command is rejected, not ignored."""
    picked = set()

    def pick(name: str, cast, default=None):
        picked.add(name)
        v = getattr(ns, name, None)
        if v is not None:
            return v
        if name in cfg:
            return cast(cfg[name])
        return default

    seed = pick("seed", int)
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(env) if env is not None else 0
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc

    if ns.command == "simulate":
        scheme = pick("scheme", str)
        if scheme is None:
            raise ValueError("simulate requires --scheme")
        schemes = (scheme,)
    else:
        raw = pick("schemes", str)
        if raw is None:
            schemes = FIG1_SCHEMES[:4] if ns.command == "fig1" else FIG3_SCHEMES
        else:
            schemes = tuple(s.strip() for s in raw.split(",") if s.strip())

    theta = pick("theta", float)
    chi = pick("chi", float)
    if chi is not None:
        if theta is not None:
            raise ValueError("give either --theta or --chi, not both")
        if not chi < 1.0:
            raise ValueError(f"chi must be < 1 (at 1 the states are identical), got {chi}")
        theta = QubitPair.from_overlap(chi).theta

    spec = SweepSpec(
        command=ns.command,
        schemes=schemes,
        gamma_sq_min=pick("gamma_sq_min", float, DEFAULTS["gamma_sq_min"]),
        gamma_sq_max=pick("gamma_sq_max", float, DEFAULTS["gamma_sq_max"]),
        points=pick("points", int, DEFAULTS["points"]),
        spacing=pick("spacing", str, DEFAULTS["spacing"]),
        q0=pick("q0", float, DEFAULTS["q0"]),
        T=pick("T", float, DEFAULTS["T"]),
        seed=seed,
        trials=pick("trials", int, DEFAULTS["trials"]),
        format=pick("format", str, DEFAULTS["format"]),
        u_max=pick("u_max", float),
        t_floor=pick("t_floor", float),
        control=pick("control", str, DEFAULTS["control"]),
        beta=pick("beta", float),
        psi=pick("psi", float, DEFAULTS["psi"]),
        theta=theta,
        copies=pick("copies", int),
    )
    output = pick("output", str)
    if output is None:
        raise ValueError("an output path is required (--output or config)")
    trajectories = pick("trajectories", str)
    unknown = sorted(set(cfg) - picked)
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}")
    return spec, output, trajectories


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INVALID_SPEC
        return EXIT_OK if code == 0 else EXIT_INVALID_SPEC
    try:
        cfg = read_config(ns.config) if ns.config else {}
        spec, output, trajectories = _resolve(ns, cfg)
        if spec.command == "fig1":
            cmd_fig1(spec, output)
        elif spec.command == "fig3":
            cmd_fig3(spec, output)
        else:
            cmd_simulate(spec, output, trajectories)
    except SingularControlError as exc:
        print(f"qsdr: singular control: {exc}", file=sys.stderr)
        return EXIT_SINGULAR_CONTROL
    except (BracketError, ConvergenceError) as exc:
        print(f"qsdr: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (ValueError, OSError) as exc:
        print(f"qsdr: invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

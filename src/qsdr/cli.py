"""Command-line front end: receiver sweeps and seeded Monte Carlo runs.

Subcommands
-----------
fig1      error probability of each receiver vs mean photon number
fig3      optimal displacement intensity of each receiver vs mean photon number
simulate  one seeded Monte Carlo run cross-checked against its analytic value

Options are ``--name VALUE``, ``--name=VALUE`` or ``-o FILE``, names exact;
``qsdr COMMAND --help`` lists a command's options, which are also its config
keys, and names the schemes that read each option not every run reads; a
run refuses any option that neither its command nor its schemes read.
Option values resolve as command line > config file > environment (seed
only) > built-in defaults; the config file is flat ``key = value`` text
(see README).  Outputs are deterministic functions of the resolved spec and
the seed: CSV with an exact documented header, LF line endings and 12
significant digits, or JSON carrying the same numbers plus the spec and tool
version.

Exit codes: 0 success, 2 invalid spec or I/O failure, 3 solver failure,
4 singular control request (equal priors with an uncapped optimal law).
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from ._record import Record
from ._streams import binomial, null_z, seed_words
from .dolinar import (
    LawFamily,
    SingularControlError,
    _hits,
    evolve_pc,
    evolve_pe,
    telegraph_chunks,
)
from .dolinar import simulate_telegraph  # not called here; perfbench/spans.py traces it
from .dolinar import helstrom_trajectory  # not called here; perfbench/spans.py traces it
from .multicopy import exact_adaptive_pc, simulate_adaptive
from .rootfind import (
    BracketError,
    ConvergenceError,
    beta_ik_problem,
    beta_sd_problem,
    solve_jointly,
)
from .rootfind import optimal_beta_ik  # not called here; perfbench/spans.py traces it
from .rootfind import optimal_beta_sd  # not called here; perfbench/spans.py traces it
from .statemath import (
    Priors,
    QubitPair,
    _helstrom_error,
    _reject,
    coherent_overlap,  # not called here; perfbench/spans.py traces it
    helstrom_bound,  # not called here; perfbench/spans.py traces it
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
_heap_frozen = False  # set by main's first call: gc.get_freeze_count() walks the frozen heap

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
}

# Options as key -> cast.  On the command line a key is --key with hyphens
# for underscores (and -o is --output); in a config file it is the key
# itself.  Both sources share the cast and the key check.  Each command runs
# one kind of SCHEMES entry and reads its own options; READS adds those of
# each selected column or run.
_EVERY = {"config": str, "output": str, "format": str, "seed": int, "q0": float}
_SWEEP = {"gamma_sq_min": float, "gamma_sq_max": float, "points": int, "spacing": str,
          "schemes": str}
COMMANDS = {
    "fig1": ("pe", {**_EVERY, **_SWEEP}),
    "fig3": ("beta_sq", {**_EVERY, **_SWEEP}),
    "simulate": ("simulate", {**_EVERY, "scheme": str}),
}
# What a value must be, in help and in the message for one that fails its cast.
_METAVAR = {int: "an integer", float: "a number", str: "text"}


class SweepSpec(Record):
    """The parameters one CLI invocation read.

    ``command``, ``schemes``, ``seed``, ``format`` and ``q0`` are always
    set; every other field is None unless the command or a selected scheme
    reads it.  ``seed`` (non-negative) feeds every stochastic scheme;
    analytic sweeps ignore it but still record it in JSON output.  The
    fields are keyword-only after ``schemes``, and their order is that of
    the JSON ``spec``.
    """

    __slots__ = ("command", "schemes", "gamma_sq_min", "gamma_sq_max", "points", "spacing",
                 "q0", "T", "seed", "trials", "format", "u_max", "t_floor", "beta", "psi",
                 "theta", "copies")

    def __init__(
        self,
        command: str,
        schemes: tuple[str, ...],
        *,
        gamma_sq_min: float | None = None,
        gamma_sq_max: float | None = None,
        points: int | None = None,
        spacing: str | None = None,
        q0: float,
        T: float | None = None,
        seed: int,
        trials: int | None = None,
        format: str,
        u_max: float | None = None,
        t_floor: float | None = None,
        beta: float | None = None,
        psi: float | None = None,
        theta: float | None = None,
        copies: int | None = None,
    ) -> None:
        self._set(command, schemes, gamma_sq_min, gamma_sq_max, points, spacing, q0, T, seed,
                  trials, format, u_max, t_floor, beta, psi, theta, copies)
        # float() accepts inf and nan; no parameter takes them.
        for name in self.__slots__:
            v = getattr(self, name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if len(self.schemes) == 0:
            raise ValueError("scheme list must not be empty")
        _reads(self.command, self.schemes)  # refuses a scheme the command cannot run
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
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be >= 1 for Monte Carlo schemes, got {self.trials}")
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must lie in [0, 1], got {self.q0}")
        if self.T is not None and self.T <= 0.0:
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
        lo, hi = self.gamma_sq_min, self.gamma_sq_max
        # Each forms its points as steps or powers, then sets both ends exactly; near
        # the float maximum the last step may overflow before its end is set.
        with np.errstate(over="ignore"):
            g = (np.linspace if self.spacing == "linear" else np.geomspace)(lo, hi, self.points)
        _reject(np.isinf(g), g, "log spacing rounds a gamma_sq point past the float range "
                "(1.798e+308); linear spacing does not")
        # Rounding can put a power below the point before it (so below lo, the
        # first) or above hi, the last; only such points move.
        return np.minimum(np.maximum.accumulate(g), hi)

    def public_dict(self) -> dict:
        """Spec fields for embedding in output files (None entries dropped)."""
        d = {name: getattr(self, name) for name in self.__slots__}
        d["schemes"] = list(self.schemes)
        return {k: v for k, v in d.items() if v is not None}


def _sig12(x: float) -> float:
    """Round to the 12 significant digits the CSV format documents."""
    return float(f"{x:.12g}")


def _write_csv(path: str, header: list[str], columns: list[list]) -> None:
    # One template for the whole file, filled by one % call: a column's
    # cells have the type of its first, and '%.12g' % x is f"{x:.12g}".
    # The cells are read row by row from the columns, with no list per row.
    # Assembled first so a formatting error cannot leave a partial file.
    codes = ["%s" if isinstance(c[0], str) else "%d" if isinstance(c[0], int) else "%.12g"
             for c in columns]
    text = ",".join(header) + "\n" + (",".join(codes) + "\n") * len(columns[0]) % tuple(
        chain.from_iterable(zip(*columns))
    )
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _json_text(spec: SweepSpec, key: str, records: list) -> str:
    import json  # only JSON output pays for the import

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
    # The CSV's 12-digit rounding; strict JSON has no infinity, so a non-finite
    # float (an intensity past the float range, or the z_score of an analytic
    # value of exactly 0 or 1 that the estimate misses) is written as null.
    if not isinstance(v, float):
        return v
    return _sig12(v) if math.isfinite(v) else None


def _write_rows(path: str, spec: SweepSpec, header: list[str], columns: list[list]) -> None:
    # One row per index of the equally long columns, one column per header.
    if spec.format == "csv":
        _write_csv(path, header, columns)
    else:
        rounded = [{k: _json_value(v) for k, v in zip(header, row)} for row in zip(*columns)]
        _write_json(path, spec, "rows", rounded)


def _law_family(spec: SweepSpec) -> LawFamily:
    return LawFamily(spec.beta, spec.t_floor, spec.u_max)


def _telegraph(spec: SweepSpec, priors: Priors, psi: float, seed: int):
    # One dolinar_mc run: its law and the chunks its sampler streams.
    law = _law_family(spec).law(priors, psi)
    return law, telegraph_chunks(priors, psi, law, spec.T, spec.trials, seed)


def _simulate_dolinar_mc(spec: SweepSpec, export):
    priors = spec.priors
    law, chunks = _telegraph(spec, priors, spec.psi, spec.seed)
    estimate, stderr = binomial(_hits(export(chunks)), spec.trials)
    analytic = evolve_pc(priors, spec.psi, law, spec.T, sample_times=()).final.pc(priors)
    return estimate, stderr, analytic


def _simulate_multicopy(spec: SweepSpec, export):
    if spec.theta is None:
        raise ValueError("multicopy requires --theta or --chi")
    if spec.copies is None:
        raise ValueError("multicopy requires --copies")
    priors = spec.priors
    estimate, stderr = simulate_adaptive(priors, spec.theta, spec.copies, spec.trials, spec.seed)
    return estimate, stderr, exact_adaptive_pc(priors, spec.theta, spec.copies)


class _Axis(NamedTuple):
    """The sweep axis, as the fig1 and fig3 columns see it: one lane per
    gamma_sq value."""

    spec: SweepSpec
    priors: Priors
    ranked: Priors  # relabeled so that q0 >= q1, for the photon-counting receivers
    g: np.ndarray  # the axis values gamma_sq themselves
    gamma: np.ndarray
    beta: dict  # each selected optimizer's name -> its displacements


def _axis(spec: SweepSpec) -> _Axis:
    # The selected optimizers' displacements come from one solve for all of them.
    g = spec.axis()
    priors = spec.priors
    axis = _Axis(spec, priors, priors.dominant(), g, np.sqrt(g), {})
    return axis._replace(beta=_betas(axis, [name for name in OPTIMIZERS if name in spec.schemes]))


# The optimized receivers' displacement solves, in photon-number units
# (at T = 1), which are all the errors depend on.  They need q0 >= q1; pe
# and |beta|**2 ignore the labels.
OPTIMIZERS = {
    "improved_kennedy": lambda ax: beta_ik_problem(ax.ranked, ax.gamma),
    "simplified_dolinar": lambda ax: beta_sd_problem(ax.ranked, ax.gamma, 1.0),
}


def _betas(ax: _Axis, names) -> dict[str, np.ndarray]:
    # The named optimizers' displacements, all in one Brent solve.
    return dict(zip(names, solve_jointly(*(OPTIMIZERS[name](ax) for name in names))))


def _psi(ax: _Axis) -> np.ndarray:
    # The law runs on the envelope amplitude psi = sqrt(gamma_sq/T); a quotient
    # past the float range is inf, which the optimal law refuses.
    with np.errstate(over="ignore"):
        return np.sqrt(ax.g / ax.spec.T)


def _dolinar_ode_pe(ax: _Axis) -> np.ndarray:
    return evolve_pe(ax.priors, _psi(ax), _law_family(ax.spec), ax.spec.T)


def _helstrom_pe(ax: _Axis) -> np.ndarray:
    # From gamma_sq itself: the overlap exp(-2*gamma_sq) rounds away 1 - overlap**2.
    # 4*gamma_sq = inf (from 4.5e307 on) gives the limits x2 = 0, w = 1.
    with np.errstate(over="ignore"):
        return _helstrom_error(ax.priors, np.exp(-4.0 * ax.g), -np.expm1(-4.0 * ax.g))


def _dolinar_mc_pe(ax: _Axis) -> np.ndarray:
    # Each point is its own seeded run; its error frequency is the exact
    # quotient of the error count, not 1 - estimate.
    spec, pe = ax.spec, []
    for psi, seed in zip(_psi(ax).tolist(), seed_words(spec.seed, spec.points).tolist()):
        pe.append((spec.trials - _hits(_telegraph(spec, ax.priors, psi, seed)[1])) / spec.trials)
    return np.array(pe)


def _envelope_intensity(ax: _Axis) -> np.ndarray:
    # The feedback field's intensity b**2/T; inf past the float range.
    with np.errstate(over="ignore"):
        return ax.beta["simplified_dolinar"] ** 2 / ax.spec.T


# One entry per scheme, in canonical column order (selections keep this
# order, not the flag order).  "pe" (fig1) and "beta_sq" (fig3) map the
# _Axis to the column's values, all points in one call; "simulate" maps
# (spec, export) to (estimate, stderr, analytic), where export passes the
# sampler's chunks on and, given --trajectories (dolinar_mc only), writes
# their click records.  Entries look library functions up as module globals
# at call time, so a wrapper set on a qsdr.cli attribute sees every call.
SCHEMES = {
    "helstrom": {"pe": _helstrom_pe},
    # Nulls the likelier hypothesis; fig3's reference line.
    "kennedy": {"pe": lambda ax: kennedy_error(ax.ranked, ax.g), "beta_sq": lambda ax: ax.g},
    "improved_kennedy": {
        "pe": lambda ax: improved_kennedy_error(
            ax.ranked, ax.gamma, ax.beta["improved_kennedy"]
        ),
        "beta_sq": lambda ax: ax.beta["improved_kennedy"] ** 2,
    },
    "simplified_dolinar": {
        "pe": lambda ax: simplified_dolinar_error(
            ax.ranked, ax.gamma, ax.beta["simplified_dolinar"], 1.0
        ),
        "beta_sq": _envelope_intensity,
    },
    "dolinar_ode": {"pe": _dolinar_ode_pe},
    "dolinar_mc": {"pe": _dolinar_mc_pe, "simulate": _simulate_dolinar_mc},
    "multicopy": {"simulate": _simulate_multicopy},
}
# The options each column or run reads beyond its command's, keyed (scheme,
# kind); the others read none.  The law is LawFamily(beta, t_floor, u_max):
# --beta, or the capped, floored optimal law.
_LAW = {"T": float, "beta": float, "u_max": float, "t_floor": float}
READS = {
    ("dolinar_ode", "pe"): _LAW,
    ("dolinar_mc", "pe"): {**_LAW, "trials": int},
    ("simplified_dolinar", "beta_sq"): {"T": float},
    ("dolinar_mc", "simulate"): {**_LAW, "trials": int, "psi": float, "trajectories": str},
    ("multicopy", "simulate"): {"trials": int, "theta": float, "chi": float, "copies": int},
}


def _reads(command: str, schemes) -> dict:
    """The options a run of the command over the schemes reads, refusing a
    scheme the command has no column or run for."""
    kind, own = COMMANDS[command]
    runs = [name for name, s in SCHEMES.items() if kind in s]
    bad = [s for s in schemes if s not in runs]
    if bad:
        raise ValueError(f"{command} supports {', '.join(runs)}; got {bad}")
    return {**own, **{k: c for s in schemes for k, c in READS.get((s, kind), {}).items()}}


# What some run of each command reads: what help lists and a config file may name.
OPTIONS = {c: _reads(c, [s for s in SCHEMES if kind in SCHEMES[s]])
           for c, (kind, _) in COMMANDS.items()}


def _sweep(spec: SweepSpec, output: str, kind: str) -> dict[str, np.ndarray]:
    # One row per gamma_sq value, one column <scheme>_<kind> per selected
    # scheme, each computed over the whole axis in one call, and the
    # optimized columns' displacements in one solve for all of them.
    columns = {name: s[kind] for name, s in SCHEMES.items() if kind in s}
    axis = _axis(spec)
    table = {"gamma_sq": axis.g}
    for name in columns:
        if name in spec.schemes:
            table[f"{name}_{kind}"] = columns[name](axis)
    _write_rows(output, spec, list(table), [column.tolist() for column in table.values()])
    return table


def cmd_fig1(spec: SweepSpec, output: str) -> dict[str, np.ndarray]:
    """Error-probability sweep: one column per scheme, one row per gamma_sq value."""
    return _sweep(spec, output, "pe")


def cmd_fig3(spec: SweepSpec, output: str) -> dict[str, np.ndarray]:
    """Optimal displacement intensity sweep: |beta|**2 per scheme and gamma_sq value."""
    return _sweep(spec, output, "beta_sq")


def cmd_simulate(
    spec: SweepSpec, output: str, trajectories_path: str | None = None
) -> dict:
    """One Monte Carlo run with its analytic cross-check."""
    (scheme,) = spec.schemes
    # Checked before either file is opened: one would overwrite the other.
    if trajectories_path is not None:
        if os.path.realpath(trajectories_path) == os.path.realpath(output):
            raise ValueError(f"--trajectories names the --output file {output!r}")
    with _trajectory_export(trajectories_path, spec) as export:
        estimate, stderr, analytic = SCHEMES[scheme]["simulate"](spec, export)
        row = {
            "scheme": scheme,
            "estimate": estimate,
            "stderr": stderr,
            "trials": spec.trials,
            "seed": spec.seed,
            "analytic": analytic,
            "z_score": null_z(estimate, analytic, spec.trials),
        }
        _write_rows(output, spec, list(row), [[v] for v in row.values()])
    return row


@contextlib.contextmanager
def _trajectory_export(path: str | None, spec: SweepSpec):
    """Open the trajectory file before the run starts and yield the filter
    that streams the sampler's chunks into it (without a path, the identity).
    A run that fails removes the partial file."""
    if path is None:
        yield lambda chunks: chunks
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
        import json

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


def _usage(command: str | None) -> str:
    """Help built from the option table: one command's, or every command's
    after the module summary."""
    if command is None:
        return f"usage: qsdr {{{','.join(OPTIONS)}}} [options]\n{__doc__ or ''}\n" + "\n".join(
            _usage(c) for c in OPTIONS
        )
    lines = [f"usage: qsdr {command} [--name VALUE | --name=VALUE]...",
             "options (and config keys, the same names without the dashes); one that",
             "names schemes is read by those alone, and any other run exits 2 on it:"]
    kind = COMMANDS[command][0]
    for key, cast in OPTIONS[command].items():
        flag = "--output/-o" if key == "output" else "--" + key.replace("_", "-")
        readers = [name for (name, of), reads in READS.items() if of == kind and key in reads]
        mark = f" ({', '.join(readers)})" if readers else ""
        lines.append(f"  {flag:<16} {_METAVAR[cast]}{mark}")
    return "\n".join(lines) + "\n"


def _is_flag(token: str) -> bool:
    # '-' alone and tokens that start like a number are values, not flags; so
    # is every token float() reads ('-1', '-.5', '-inf', '-nan').
    number = token[1:2].isdigit() or token[1:2] == "." or token[1:4].lower() in ("inf", "nan")
    return len(token) > 1 and token[0] == "-" and not number


def _split(argv: list[str]) -> tuple[str | None, dict[str, str] | None]:
    """Split argv into the command and its options as ``{key: text}``, the
    form :func:`read_config` returns.  Options are ``--name VALUE``,
    ``--name=VALUE`` and ``-o VALUE`` with exact names, the last occurrence
    winning.  The options are None when ``-h``/``--help`` asks for usage;
    the command is None too when it comes first."""
    if argv[:1] in (["-h"], ["--help"]):
        return None, None
    if not argv or argv[0] not in OPTIONS:
        got = repr(argv[0]) if argv else "none"
        raise ValueError(f"the command must be one of {', '.join(OPTIONS)}, got {got}")
    command, tokens, args = argv[0], iter(argv[1:]), {}
    names = {"--" + key.replace("_", "-"): key for key in OPTIONS[command]}
    names["-o"] = "output"
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        if not _is_flag(token):
            raise ValueError(f"unexpected argument {token!r}")
        flag, eq, value = token.partition("=")
        if flag not in names:
            raise ValueError(f"{command} has no option {flag}; see qsdr {command} --help")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                raise ValueError(f"option {flag} needs a value")
        args[names[flag]] = value
    return command, args


def _resolve(command: str, args: dict[str, str], cfg: dict[str, str]):
    """Merge argv > config > env (seed) > defaults into a SweepSpec of the
    options the run reads.  Both sources are ``{key: text}`` checked against
    the command's option table (a config file cannot name another), cast
    once, through the table, and refused where no selected scheme reads them."""
    options = OPTIONS[command]
    unknown = sorted(k for k in cfg if k not in options or k == "config")
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}")
    v = {}
    for key, text in {**cfg, **args}.items():
        try:
            v[key] = options[key](text)
        except ValueError:
            raise ValueError(f"{key} must be {_METAVAR[options[key]]}, got {text!r}") from None

    seed = v.get("seed")
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(env) if env is not None else 0
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc

    if command == "simulate":
        if "scheme" not in v:
            raise ValueError("simulate requires --scheme")
        schemes = (v["scheme"],)
    elif "schemes" in v:
        schemes = tuple(s.strip() for s in v["schemes"].split(",") if s.strip())
    else:
        schemes = {"fig1": ("helstrom", "kennedy", "improved_kennedy", "simplified_dolinar"),
                   "fig3": ("kennedy", "improved_kennedy", "simplified_dolinar")}[command]
    reads = _reads(command, schemes)
    unread = ["--" + k.replace("_", "-") for k in options if k in v and k not in reads]
    if unread:
        which = "--scheme " if command == "simulate" else "--schemes "
        raise ValueError(f"{command} {which}{','.join(schemes)} does not read {', '.join(unread)}")

    theta, chi = v.get("theta"), v.get("chi")
    if chi is not None:
        if theta is not None:
            raise ValueError("give either --theta or --chi, not both")
        if not chi < 1.0:
            raise ValueError(f"chi must be < 1 (at 1 the states are identical), got {chi}")
        theta = QubitPair.from_overlap(chi).theta

    # Only the fields the run reads are set.
    values = {name: v.get(name, DEFAULTS.get(name)) for name in SweepSpec.__slots__
              if name in reads}
    values.update(command=command, schemes=schemes, seed=seed, theta=theta)
    spec = SweepSpec(**values)
    _law_family(spec)  # refuses law options that name two laws
    if "output" not in v:
        raise ValueError("an output path is required (--output or config)")
    return spec, v["output"], v.get("trajectories")


def main(argv=None) -> int:
    """Run one command, ``argv`` or else ``sys.argv[1:]``, and return its exit
    code: 0 success, 2 invalid spec or I/O failure, 3 solver failure, 4
    singular control request.

    The first call in a process freezes every object then alive
    (``gc.freeze()``), numpy's and this package's import heap above all, so
    that neither the run's own garbage collections nor interpreter shutdown
    walk them again.  Objects an embedding caller holds at that first call
    are therefore never cyclically collected; later calls freeze nothing.
    """
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    try:
        command, args = _split(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            print(_usage(command), end="")
            return EXIT_OK
        config = args.pop("config", None)
        spec, output, trajectories = _resolve(command, args, read_config(config) if config else {})
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

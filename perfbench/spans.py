"""In-memory span tracer for one qsdr CLI invocation.

``Tracer.install()`` replaces public qsdr functions at the module attributes
their callers look up (plus ``ControlLaw.u0``, ``solve_ivp``,
``numpy.random.default_rng`` and ``SeedSequence.spawn``) with wrappers that
record one span per call: name, start, end and the enclosing span.  A few
inner-loop calls are only counted.  Spans
are kept in compact arrays and written once, by ``Tracer.dump``, when the
invocation ends.  Nothing in qsdr itself changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, attribute, span name).  A span name's first component is the
# layer the call belongs to; the module is the caller's namespace, so the
# same function can be traced from one call site and not another.
PATCHES = (
    ("qsdr.cli", "cmd_fig1", "cli.cmd_fig1"),
    ("qsdr.cli", "cmd_fig3", "cli.cmd_fig3"),
    ("qsdr.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("qsdr.cli", "helstrom_bound", "statemath.helstrom_bound"),
    ("qsdr.cli", "coherent_overlap", "statemath.coherent_overlap"),
    ("qsdr.cli", "kennedy_pc", "statemath.kennedy_pc"),
    ("qsdr.cli", "improved_kennedy_pc", "statemath.improved_kennedy_pc"),
    ("qsdr.cli", "simplified_dolinar_pc", "statemath.simplified_dolinar_pc"),
    ("qsdr.cli", "optimal_beta_sd", "rootfind.optimal_beta_sd"),
    ("qsdr.cli", "optimal_beta_ik", "rootfind.optimal_beta_ik"),
    ("qsdr.rootfind", "solve_bracketed", "rootfind.solve_bracketed"),
    ("qsdr.rootfind", "golden_max", "rootfind.golden_max"),
    ("qsdr.cli", "helstrom_trajectory", "dolinar.helstrom_trajectory"),
    ("qsdr.cli", "evolve_pc", "dolinar.evolve_pc"),
    ("qsdr.dolinar", "solve_ivp", "dolinar.solve_ivp"),
    ("qsdr.cli", "simulate_telegraph", "dolinar.simulate_telegraph"),
    ("qsdr.cli", "exact_adaptive_pc", "multicopy.exact_adaptive_pc"),
    ("qsdr.cli", "simulate_adaptive", "multicopy.simulate_adaptive"),
    ("numpy.random", "default_rng", "rng.default_rng"),
)
# (module, attribute, counter): calls counted without a span.  The success
# probability evaluations inside the optimizers run ~2,000 times per
# optimization; a span each would triple the optimizers' traced time.
COUNTED = (
    ("qsdr.rootfind", "simplified_dolinar_pc", "rootfind.pc_evals"),
    ("qsdr.rootfind", "improved_kennedy_pc", "rootfind.pc_evals"),
)


class Tracer:
    """Records nested call spans of one process into flat arrays."""

    def __init__(self, invocation: int) -> None:
        self.invocation = invocation
        self._ids: dict[str, int] = {}  # span name -> id, in first-use order
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {
            "rootfind.pc_evals": 0,
            "dolinar.ode.nfev": 0,
            "dolinar.trials": 0,
            "multicopy.trials": 0,
        }
        self._stack = [-1]

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def count(self, fn, key: str):
        """``fn`` wrapped so that every call adds one to ``counters[key]``."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_arg(self, key: str, arg_index: int, arg_name: str):
        def on_return(args, kwargs, _result):
            value = args[arg_index] if len(args) > arg_index else kwargs[arg_name]
            self.counters[key] += int(value)

        return on_return

    def _add_nfev(self, _args, _kwargs, sol) -> None:
        self.counters["dolinar.ode.nfev"] += int(sol.nfev)

    def install(self) -> None:
        """Patch qsdr and numpy in this process; qsdr.cli must be imported."""
        import numpy.random
        from qsdr.dolinar import ControlLaw

        hooks = {
            "dolinar.solve_ivp": self._add_nfev,
            "dolinar.simulate_telegraph": self._count_arg("dolinar.trials", 4, "trials"),
            "multicopy.simulate_adaptive": self._count_arg("multicopy.trials", 3, "trials"),
        }
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, hooks.get(name)))
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.count(getattr(module, attr), key))
        ControlLaw.u0 = self.wrap(ControlLaw.u0, "dolinar.ControlLaw.u0")

        base = numpy.random.SeedSequence

        class TracedSeedSequence(base):
            spawn = self.wrap(base.spawn, "rng.spawn")

        numpy.random.SeedSequence = TracedSeedSequence

    def dump(self, path: str) -> None:
        """Write every span and counter to one ``.npz`` file."""
        import numpy as np

        meta = {"invocation": self.invocation, "names": list(self._ids), "counters": self.counters}
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

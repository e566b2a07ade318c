"""The contract of qsdr's value types: constructor, equality, hashing,
immutability and repr."""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from qsdr import (
    ControlLaw,
    EvolveResult,
    LawFamily,
    PcState,
    Priors,
    QubitPair,
    evolve_pc,
)
from qsdr.cli import SweepSpec


def spec(**kw):
    return SweepSpec("fig3", ("kennedy",), gamma_sq_min=0.1, gamma_sq_max=1.0, points=2,
                     spacing="log", q0=0.5, seed=0, format="csv", **kw)


def evolve_result():
    times = np.array([0.0, 1.0])
    return EvolveResult(PcState(0.1, 0.3, 1.0), times, 1.0 - times, times, times)


# Each type's constructor, its parameters as written in a def: name, default,
# and a bare * before the keyword-only ones.
SIGNATURES = {
    Priors: "q0, q1=None",
    QubitPair: "theta",
    ControlLaw: "starts, values, optimal=None",
    LawFamily: "beta=None, t_floor=None, u_max=None",
    PcState: "e0, e1, t",
    EvolveResult: "final, times, p0, p1, pc",
    SweepSpec: "command, schemes, *, gamma_sq_min=None, gamma_sq_max=None, points=None, "
               "spacing=None, q0, T=None, seed, trials=None, format, u_max=None, t_floor=None, "
               "beta=None, psi=None, theta=None, copies=None",
}

# Two constructions of one value each, built different ways.
EQUAL = {
    Priors: lambda: (Priors(0.7), Priors(0.7, 1 - 0.7)),
    QubitPair: lambda: (QubitPair.from_overlap(1.0), QubitPair(theta=0.0)),
    ControlLaw: lambda: (ControlLaw.constant(0.3), ControlLaw((0.0,), (0.3,))),
    LawFamily: lambda: (LawFamily(beta=0.8), LawFamily(0.8, None)),
    PcState: lambda: (PcState(0.1, 0.3, 1.0), PcState(t=1.0, e1=0.3, e0=0.1)),
    SweepSpec: lambda: (spec(), SweepSpec(format="csv", seed=0, q0=0.5, spacing="log", points=2,
                                          gamma_sq_max=1.0, gamma_sq_min=0.1,
                                          schemes=("kennedy",), command="fig3")),
}

# One value of each type with a field changed.
OTHER = {
    Priors: lambda: Priors(0.6),
    QubitPair: lambda: QubitPair(0.1),
    ControlLaw: lambda: ControlLaw((0.0, 0.5), (0.3,), (Priors(0.7), 1.0)),
    LawFamily: lambda: LawFamily(0.9),
    PcState: lambda: PcState(0.1, 0.3, 2.0),
    SweepSpec: lambda: spec(T=2.0),
}

REPRS = {
    Priors: (lambda: Priors(0.75), "Priors(q0=0.75, q1=0.25)"),
    QubitPair: (lambda: QubitPair(0.2), "QubitPair(theta=0.2)"),
    ControlLaw: (
        lambda: ControlLaw((0.0, 0.5), (2.0,), (Priors(0.5), 1.0)),
        "ControlLaw(starts=(0.0, 0.5), values=(2.0,), optimal=(Priors(q0=0.5, q1=0.5), 1.0))",
    ),
    LawFamily: (lambda: LawFamily(u_max=8.0), "LawFamily(beta=None, t_floor=None, u_max=8.0)"),
    PcState: (lambda: PcState(0.1, 0.3, 1.0), "PcState(e0=0.1, e1=0.3, t=1.0)"),
    EvolveResult: (
        evolve_result,
        "EvolveResult(final=PcState(e0=0.1, e1=0.3, t=1.0), times=array([0., 1.]), "
        "p0=array([1., 0.]), p1=array([0., 1.]), pc=array([0., 1.]))",
    ),
    SweepSpec: (
        lambda: spec(trials=50),
        "SweepSpec(command='fig3', schemes=('kennedy',), gamma_sq_min=0.1, gamma_sq_max=1.0, "
        "points=2, spacing='log', q0=0.5, T=None, seed=0, trials=50, format='csv', u_max=None, "
        "t_floor=None, beta=None, psi=None, theta=None, copies=None)",
    ),
}


def written(sig: inspect.Signature) -> str:
    out, star = [], False
    for p in sig.parameters.values():
        if p.kind is p.KEYWORD_ONLY and not star:
            out.append("*")
            star = True
        out.append(p.name if p.default is p.empty else f"{p.name}={p.default!r}")
    return ", ".join(out)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    assert written(inspect.signature(cls)) == SIGNATURES[cls]


def test_constructor_defaults():
    assert Priors(0.7).q1 == 1 - 0.7
    assert ControlLaw((0.0,), (0.3,)).optimal is None
    family = LawFamily()
    assert (family.beta, family.t_floor, family.u_max) == (None, None, None)
    s = spec()
    assert (s.T, s.trials, s.u_max, s.t_floor, s.beta, s.psi, s.theta, s.copies) == (None,) * 8


def test_sweep_spec_is_keyword_only_after_schemes():
    with pytest.raises(TypeError):
        SweepSpec("fig3", ("kennedy",), 0.1, 1.0, 2, "log", 0.5, None, 0, None, "csv")
    with pytest.raises(TypeError):  # q0, seed and format have no default
        SweepSpec("simulate", ("multicopy",), seed=0, format="csv")


@pytest.mark.parametrize("cls", list(EQUAL), ids=lambda c: c.__name__)
def test_equal_constructions_compare_and_hash_equal(cls):
    a, b = EQUAL[cls]()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    other = OTHER[cls]()
    assert a != other and not a == other
    assert a != tuple(getattr(a, name) for name in inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", list(EQUAL), ids=lambda c: c.__name__)
def test_copies_and_pickles_compare_equal(cls):
    a, _ = EQUAL[cls]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


def test_evolve_result_compares_by_field_and_does_not_hash():
    # Its arrays are compared as the fields themselves: the same arrays are equal.
    a = evolve_result()
    b = EvolveResult(a.final, a.times, a.p0, a.p1, a.pc)
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_evolve_results_of_equal_runs_compare_equal():
    # Two runs build equal arrays, not the same ones; numpy's == is element-wise.
    def run(T):
        return evolve_pc(Priors(0.7), 1.0, ControlLaw.constant(0.8), T)

    a, b = run(1.0), run(1.0)
    assert a.times is not b.times
    assert a == b
    assert run(1.0) != run(2.0)


@pytest.mark.parametrize("cls", list(EQUAL), ids=lambda c: c.__name__)
def test_fields_refuse_assignment(cls):
    a, _ = EQUAL[cls]()
    for name in inspect.signature(cls).parameters:
        before = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, 0.5)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("cls", list(REPRS), ids=lambda c: c.__name__)
def test_repr_names_each_field(cls):
    make, text = REPRS[cls]
    assert repr(make()) == text


def test_checks_run_at_construction():
    with pytest.raises(ValueError, match=r"^q0 must lie in \[0, 1\], got 1\.5$"):
        Priors(1.5)
    with pytest.raises(ValueError, match="priors must sum to 1"):
        Priors(0.5, 0.6)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi/4\], got -0\.1$"):
        QubitPair(-0.1)
    with pytest.raises(ValueError, match=r"^1 segment\(s\) need as many starts rising from 0"):
        ControlLaw((0.5,), (1.0,))
    with pytest.raises(ValueError, match="^beta sets a constant law; it takes no t_floor or u_max$"):
        LawFamily(0.5, u_max=2.0)
    with pytest.raises(ValueError, match=r"^e1 must lie in \[0, 1\], got 1\.5$"):
        PcState(0.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="^T must be finite, got inf$"):
        spec(T=math.inf)
    with pytest.raises(ValueError, match=r"^points must be >= 2, got 1$"):
        SweepSpec("fig1", ("helstrom",), gamma_sq_min=0.1, gamma_sq_max=1.0, points=1,
                  spacing="log", q0=0.5, seed=0, format="csv")

"""Seeded operation generators for the two benchmark workloads.

Each operation is one `mucorr` CLI call: an argv plus, for `run`, the
scenario document the call reads. `make_op(workload, seed, index)` is a pure
function of its arguments, so the same seed always yields the same inputs.

Every workload walks a fixed cycle of operation kinds, and the seed only
draws the parameters inside each kind (and, on mc-crosscheck, the output
format, which costs next to nothing there). The share of expensive and cheap
kinds is then the same for every seed, which keeps the per-run throughput
comparable across seeds.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("analytic-scenarios", "mc-crosscheck")
FORMATS = ("table", "csv", "json")

#: Sample count of every Monte Carlo operation (the CLI default).
N_SAMPLES = 1_000_000
#: Sweep grids sized so that a sweep costs about what a chsh run does.
SWEEP_POINTS = 1_001

#: Remote-to-`a` separations, in degrees, near which the oracle must hold:
#: the ends of the range and the points where rho_min changes sign.
LANDMARKS = (0.0, 10.0, 80.0, 90.0, 135.0, 170.0, 180.0)

_ANALYTIC_CYCLE = (
    "chsh", "chsh", "chsh", "chsh", "counterfactual",
    "nsbox-isotropic", "nsbox-correlators", "nsbox-box",
    "classical-coin", "classical-shapes", "invalid",
    "sweep-isotropic_p", "sweep-theta_degrees",
)
_INVALID_KINDS = ("non-orthogonal", "signalling", "isotropic-range")
_MC_CYCLE = ("chsh", "nsbox", "classical")
_NSBOX_FORMS = ("nsbox-isotropic", "nsbox-correlators", "nsbox-box")
_CLASSICAL_FORMS = ("classical-coin", "classical-shapes")


@dataclass
class Op:
    """One CLI call. `argv` names `DOC` and `OUT`, which the runner replaces
    with the scenario file it writes and the output path it reads back."""

    kind: str
    argv: list[str]
    fmt: str
    doc: dict | None = None
    exit_code: int = 0
    #: Text that stderr must contain when the call is expected to fail.
    stderr_needle: str | None = None
    mc_samples: int = 0
    #: Sweep grid, for the oracle: parameter, start, stop, step, points, a, a'.
    grid: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{index}")


def _angle(rng: random.Random) -> float:
    # Three decimals print exactly under the CLI's `:g` row names; staying
    # clear of 360 keeps the canonical angle equal to the drawn one.
    return round(rng.uniform(0.0, 359.9), 3)


def _remote(rng: random.Random, a: float) -> float:
    if rng.random() < 0.6:
        sep = rng.choice(LANDMARKS) + rng.uniform(-0.5, 0.5)
        sep = sep if rng.random() < 0.5 else -sep
    else:
        sep = rng.uniform(0.0, 360.0)
    b = round((a + sep) % 360.0, 3)
    return b if b < 359.9 else round(b - 359.9, 3)


def _orthogonal_pair(rng: random.Random) -> tuple[float, float]:
    a = _angle(rng)
    a_prime = round((a + rng.choice((90.0, 270.0))) % 360.0, 3)
    return a, a_prime


def _chsh_doc(rng: random.Random, sid: str) -> dict:
    a, a_prime = _orthogonal_pair(rng)
    params = {
        "a_degrees": a,
        "a_prime_degrees": a_prime,
        "b_degrees": _remote(rng, a),
        "b_prime_degrees": _remote(rng, a),
    }
    if rng.random() < 0.75:
        options = ["none", "b", "b_prime"]
        rng.shuffle(options)
        params["remote_options"] = options[: rng.randint(1, 3)]
    if rng.random() < 0.5:
        params["assume_ci"] = rng.random() < 0.5
    return {"id": sid, "kind": "chsh", "parameters": params}


def _counterfactual_doc(rng: random.Random, sid: str) -> dict:
    a, a_prime = _orthogonal_pair(rng)
    params = {
        "theta_degrees": _remote(rng, a),
        "a_degrees": a,
        "a_prime_degrees": a_prime,
    }
    return {"id": sid, "kind": "counterfactual", "parameters": params}


def _correlators(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-1.0, 1.0), 6) for _ in range(4)]


def box_entries(correlators: list[float]) -> dict[str, float]:
    """The 16 `P(A,B|a,b)` entries of the uniform-marginal box with the
    given correlators [E00, E01, E10, E11]."""
    entries = {}
    inputs = ((0, 0), (0, 1), (1, 0), (1, 1))
    for (a_in, b_in), e in zip(inputs, correlators):
        for a_out in (0, 1):
            for b_out in (0, 1):
                same = a_out == b_out
                entries[f"P({a_out},{b_out}|{a_in},{b_in})"] = (
                    (1.0 + e) / 4.0 if same else (1.0 - e) / 4.0
                )
    return entries


def _nsbox_doc(rng: random.Random, sid: str, form: str) -> dict:
    if form == "nsbox-isotropic":
        params = {"isotropic_p": round(rng.uniform(0.0, 1.0), 6)}
    elif form == "nsbox-correlators":
        params = {"correlators": _correlators(rng)}
    elif rng.random() < 0.5:
        p = round(rng.uniform(0.0, 1.0), 6)
        # Isotropic p as correlators: E = 2p - 1 except E11 = 1 - 2p.
        params = {"box": box_entries([2 * p - 1, 2 * p - 1, 2 * p - 1, 1 - 2 * p])}
    else:
        params = {"box": box_entries(_correlators(rng))}
    return {"id": sid, "kind": "nsbox", "parameters": params}


def _classical_doc(rng: random.Random, sid: str, form: str) -> dict:
    if form == "classical-coin":
        params = {"variant": "coin"}
    else:
        params = {
            "variant": "shapes",
            "red_given_cube": round(rng.uniform(0.1, 0.9), 4),
            "blue_given_sphere": round(rng.uniform(0.1, 0.9), 4),
        }
    return {"id": sid, "kind": "classical", "parameters": params}


def _invalid_doc(rng: random.Random, sid: str, which: str) -> tuple[dict, str]:
    if which == "non-orthogonal":
        doc = _chsh_doc(rng, sid)
        a = doc["parameters"]["a_degrees"]
        doc["parameters"]["a_prime_degrees"] = round(a + rng.uniform(100.0, 170.0), 3)
        return doc, "orthogonal"
    if which == "signalling":
        entries = box_entries([round(rng.uniform(-0.6, 1.0), 6) for _ in range(4)])
        a_in, b_in = rng.randint(0, 1), rng.randint(0, 1)
        # Moving mass from A=0 to A=1 keeps the table normalized and the B
        # marginal fixed, but makes the A marginal depend on b.
        shift = round(rng.uniform(0.02, 0.09), 6)
        entries[f"P(0,0|{a_in},{b_in})"] -= shift
        entries[f"P(1,0|{a_in},{b_in})"] += shift
        doc = {"id": sid, "kind": "nsbox", "parameters": {"box": entries}}
        return doc, "no-signalling"
    p = round(rng.uniform(1.01, 3.0), 6)
    if rng.random() < 0.5:
        p = round(1.0 - p, 6)
    doc = {"id": sid, "kind": "nsbox", "parameters": {"isotropic_p": p}}
    return doc, "[0, 1]"


def _doc_for(kind: str, rng: random.Random, sid: str) -> dict:
    if kind == "chsh":
        return _chsh_doc(rng, sid)
    if kind == "counterfactual":
        return _counterfactual_doc(rng, sid)
    if kind.startswith("nsbox"):
        return _nsbox_doc(rng, sid, kind)
    return _classical_doc(rng, sid, kind)


def _run_argv(fmt: str) -> list[str]:
    return ["run", "DOC", "--format", fmt, "--out", "OUT"]


def _analytic_op(seed: int, index: int) -> Op:
    rng = _rng("analytic-scenarios", seed, index)
    kind = _ANALYTIC_CYCLE[index % len(_ANALYTIC_CYCLE)]
    fmt = FORMATS[index % len(FORMATS)]
    sid = f"a{index}"
    if kind == "invalid":
        which = _INVALID_KINDS[(index // len(_ANALYTIC_CYCLE)) % len(_INVALID_KINDS)]
        doc, needle = _invalid_doc(rng, sid, which)
        return Op(f"invalid-{which}", _run_argv(fmt), fmt, doc, 1, needle)
    if kind.startswith("sweep-"):
        return _sweep_op(rng, kind.removeprefix("sweep-"), fmt)
    return Op(kind, _run_argv(fmt), fmt, _doc_for(kind, rng, sid))


def _mc_op(seed: int, index: int) -> Op:
    rng = _rng("mc-crosscheck", seed, index)
    turn = index // len(_MC_CYCLE)
    kind = _MC_CYCLE[index % len(_MC_CYCLE)]
    if kind == "nsbox":
        kind = _NSBOX_FORMS[turn % len(_NSBOX_FORMS)]
    elif kind == "classical":
        kind = _CLASSICAL_FORMS[turn % len(_CLASSICAL_FORMS)]
    mc_seed = rng.randrange(2**32)
    doc = _doc_for(kind, rng, f"m{index}")
    # Drawn, not turned with the forms, so that every form meets every
    # format; rendering is a negligible share of an MC operation.
    fmt = rng.choice(FORMATS)
    argv = _run_argv(fmt) + ["--mc", "--samples", str(N_SAMPLES), "--seed", str(mc_seed)]
    return Op(kind, argv, fmt, doc, mc_samples=N_SAMPLES)


def _sweep_op(rng: random.Random, parameter: str, fmt: str) -> Op:
    points = SWEEP_POINTS
    if parameter == "isotropic_p":
        start = rng.uniform(0.0, 0.5)
        step = rng.uniform(0.4, 0.5) / (points - 1)
        extra: list[str] = []
        a = a_prime = None
    else:
        start = rng.uniform(-360.0, 360.0)
        step = rng.uniform(0.05, 0.2)
        a, a_prime = _orthogonal_pair(rng)
        extra = [f"--a-degrees={a!r}", f"--a-prime-degrees={a_prime!r}"]
    stop = start + (points - 1) * step
    argv = [
        "sweep", "--parameter", parameter,
        f"--start={start!r}", f"--stop={stop!r}", f"--step={step!r}",
        *extra, "--format", fmt, "--out", "OUT",
    ]
    grid = {
        "parameter": parameter, "start": start, "stop": stop, "step": step,
        "points": points, "a": a, "a_prime": a_prime,
    }
    return Op(f"sweep-{parameter}", argv, fmt, grid=grid)


def cycle_length(workload: str) -> int:
    """Operations after which a workload's mix of kinds and forms repeats
    exactly (and formats too, on analytic-scenarios); runs end on a boundary."""
    return {
        # Invalid kinds turn once per pass of the kinds, formats every op.
        "analytic-scenarios": math.lcm(len(_ANALYTIC_CYCLE) * len(_INVALID_KINDS), len(FORMATS)),
        # Forms turn once per pass of the three kinds.
        "mc-crosscheck": len(_MC_CYCLE) * math.lcm(len(_NSBOX_FORMS), len(_CLASSICAL_FORMS)),
    }[workload]


def make_op(workload: str, seed: int, index: int) -> Op:
    """Operation number `index` of a workload, drawn from `seed`."""
    if workload == "analytic-scenarios":
        return _analytic_op(seed, index)
    if workload == "mc-crosscheck":
        return _mc_op(seed, index)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")

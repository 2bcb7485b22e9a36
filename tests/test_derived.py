"""Every derived row is a function of the rows a run prints.

Hypothesis documents of every kind run through `mucorr run FILE --format
json`. `references.py` recomputes each derived row from the printed rows,
or from the document where README's table of derived rows says so, without
calling mucorr, and each value must equal the printed one bit for bit (the
sign of zero included), each flag string exactly.
"""
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mucorr.cli import main

import references as ref

ANGLES = st.floats(-720.0, 720.0) | st.sampled_from([0.0, 45.0, 90.0, 135.0, 180.0, -45.0])
#: a' - a for an orthogonal measured/unmeasured pair.
TURNS = st.sampled_from([90.0, -90.0, 270.0])
UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, (2.0 + 2.0**0.5) / 4.0])
CORRELATORS = st.lists(
    st.floats(-1.0, 1.0) | st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0**-0.5]),
    min_size=4, max_size=4,
)
#: Base rows: printed values that no other printed row determines.
BASE = {
    "chsh": lambda q: q.startswith("E(") or q.startswith("max_info_"),
    "counterfactual": lambda q: q == "rho_ci",
    "nsbox": lambda q: q.startswith(("E(", "target_rate(")),
    "classical": lambda q: False,
}
DERIVED = {
    "chsh": ref.derived_chsh,
    "counterfactual": ref.derived_counterfactual,
    "nsbox": ref.derived_nsbox,
    "classical": ref.derived_classical,
}


def box_table(correlators) -> dict[str, float]:
    """The wire-format table of the uniform-marginal box with these
    correlators E00, E01, E10, E11."""
    corr = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], correlators))
    return {
        f"P({A},{B}|{a},{b})": (1.0 + corr[a, b]) / 4.0 if A == B else (1.0 - corr[a, b]) / 4.0
        for A in (0, 1) for B in (0, 1) for a in (0, 1) for b in (0, 1)
    }


@st.composite
def chsh_parameters(draw):
    a = draw(ANGLES)
    params = {
        "a_degrees": a, "a_prime_degrees": a + draw(TURNS),
        "b_degrees": draw(ANGLES), "b_prime_degrees": draw(ANGLES),
    }
    if draw(st.booleans()):
        names = draw(st.permutations(["none", "b", "b_prime"]))
        params["remote_options"] = names[:draw(st.integers(1, 3))]
    if draw(st.booleans()):
        params["assume_ci"] = draw(st.booleans())
    if draw(st.booleans()):
        params["annotation"] = draw(st.sampled_from(["note", "cited value 1.442"]))
    return params


@st.composite
def counterfactual_parameters(draw):
    a = draw(ANGLES)
    return {"theta_degrees": draw(ANGLES), "a_degrees": a, "a_prime_degrees": a + draw(TURNS)}


NSBOX_PARAMETERS = (
    st.fixed_dictionaries({"isotropic_p": UNIT})
    | st.fixed_dictionaries({"correlators": CORRELATORS})
    | CORRELATORS.map(lambda cs: {"box": box_table(cs)})
)
CLASSICAL_PARAMETERS = st.just({"variant": "coin"}) | st.fixed_dictionaries(
    {"variant": st.just("shapes")},
    optional={"red_given_cube": UNIT, "blue_given_sphere": UNIT},
).filter(lambda p: abs(p.get("red_given_cube", 0.75) - p.get("blue_given_sphere", 0.75)) < 1.0)
DOCUMENTS = st.one_of(
    st.tuples(st.just("chsh"), chsh_parameters()),
    st.tuples(st.just("counterfactual"), counterfactual_parameters()),
    st.tuples(st.just("nsbox"), NSBOX_PARAMETERS),
    st.tuples(st.just("classical"), CLASSICAL_PARAMETERS),
)


@st.composite
def sweep_parameters(draw):
    """A sweep of at most ~200 grid points over either parameter."""
    steps = draw(st.integers(1, 200))
    if draw(st.booleans()):
        start, stop = sorted([draw(UNIT), draw(UNIT)])
        params = {"parameter": "isotropic_p"}
    else:
        start = draw(ANGLES)
        stop = start + draw(st.floats(0.0, 720.0))
        a = draw(ANGLES)
        params = {"parameter": "theta_degrees", "a_degrees": a, "a_prime_degrees": a + draw(TURNS)}
    step = (stop - start) / steps
    if step == 0.0:  # stop == start, or a subnormal range that the steps underflow
        step = draw(st.floats(1e-3, 1.0))
    return {**params, "start": start, "stop": stop, "step": step}


def run_json(kind: str, params: dict, *options: str) -> list[dict]:
    """The records that `mucorr run FILE --format json [options]` prints for
    the document."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"id": "d", "kind": kind, "parameters": params}, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", path, "--format", "json", *options])
    assert code == 0, params
    return json.loads(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
# On both thresholds: chsh_s prints 2.0, and rho_min[remote=b] and
# rho_min[remote=b_prime] print 0.0, so neither is flagged.
@example(("chsh", {
    "a_degrees": 0.0, "a_prime_degrees": 90.0, "b_degrees": 0.0, "b_prime_degrees": 90.0,
}))
def test_derived_rows_are_functions_of_printed_rows(document):
    kind, params = document
    records = run_json(kind, params)
    printed = {row["quantity"]: row for row in records}
    expected = DERIVED[kind](params, records)
    assert sorted(q for q in printed if q not in expected) == sorted(
        q for q in printed if BASE[kind](q)
    )
    for quantity, (value, flags) in expected.items():
        row = printed[quantity]
        assert (row["analytic"].hex(), row["flags"]) == (value.hex(), flags), quantity


@settings(max_examples=60, deadline=None)
@given(sweep_parameters())
# The smallest grids that the subnormal range can hold: two points, one ulp apart.
@example({"parameter": "isotropic_p", "start": 0.0, "stop": 5e-324, "step": 5e-324})
@example({
    "parameter": "theta_degrees", "a_degrees": 0.0, "a_prime_degrees": 90.0,
    "start": 0.0, "stop": 5e-324, "step": 5e-324,
})
def test_sweep_columns_are_functions_of_isotropic_p_or_rho_ci(params):
    records = run_json("sweep", params)
    start, stop, step = params["start"], params["stop"], params["step"]
    assert len(records) == math.floor((stop - start) / step + 1e-9) + 1
    for i, record in enumerate(records):
        point = start + i * step
        if params["parameter"] == "isotropic_p":
            p = min(max(point, 0.0), 1.0)
            want = {"isotropic_p": p, **ref.derived_isotropic_point(p)}
        else:
            want = {"theta_degrees": point, "info_bits": ref.info_bits(record["rho_ci"])}
        assert {k: record[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}

import contextlib
import io
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mucorr import nsbox as nsb
from mucorr import scenarios
from mucorr.cli import main
from mucorr.errors import ValidationError
from mucorr.montecarlo import EmpiricalEstimate, SampleConfig
from mucorr.scenarios import (
    KINDS,
    MAX_GRID_POINTS,
    REMOTE_OPTION_NAMES,
    SWEEP_PARAMETERS,
    ResultRow,
    Scenario,
    builtin_scenarios,
    load_scenario_file,
    run,
    sweep_columns,
    _check_number,
    _checked,
    _grid_steps,
    validate_scenario,
)
from mucorr.spin import CLASSICAL_BOUND, Direction

from references import (
    Quad,
    builtin_quad,
    chsh_label,
    chsh_s,
    chsh_s_row,
    grid_points,
    sweep_records,
    to_labeled_dict,
)

MANDATED_IDS = {
    "paper-standard",
    "paper-55-35",
    "paper-pr-box",
    "paper-coin",
    "paper-shapes",
}


def sweep_grid(start: float, stop: float, step: float) -> list[float]:
    """The theta_degrees column of a sweep: its grid, as the sweep builds it."""
    _, blocks = sweep_columns(Scenario("g", "sweep", {
        "parameter": "theta_degrees", "start": start, "stop": stop, "step": step,
    }))
    return [theta for block in blocks for theta in block[1]]


def rows_by_quantity(rows: list[ResultRow]) -> dict[str, ResultRow]:
    indexed = {row.quantity: row for row in rows}
    assert len(indexed) == len(rows), "duplicate quantity names"
    return indexed


# Arbitrary JSON, and scenario documents of each kind whose every field may
# be wrong: a number out of range or not finite, a value of the wrong type, a
# key the kind does not know, a grid of any size.
NUMBERS = (
    st.floats()
    | st.integers()
    | st.sampled_from([0, 1, -0.0, 0.25, 0.5, 0.75, 1.0, 45, 90.0, 135, 5e-324,
                       1e-6, 1e-12, 1e308, -1e308, 1.7976931348623157e308,
                       10**400, -(10**400)])
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
ANGLES = st.sampled_from([0, 90.0, 45, 135.0, -90, 180]) | NUMBERS
BOXES = st.floats(0.0, 1.0).map(
    lambda p: to_labeled_dict(nsb.make_isotropic(p))
) | st.dictionaries(
    st.sampled_from(list(to_labeled_dict(nsb.make_isotropic(1.0))))
    | st.text(max_size=10),
    NUMBERS, max_size=17,
)
GRID = st.sampled_from([0, 0.25, 0.5, 1.0, 1e-3, 1e-6]) | NUMBERS
#: Measured and unmeasured directions: orthogonal pairs, or any two angles.
LOCAL_PAIRS = st.sampled_from([(0, 90.0), (45, -45.0)]) | st.tuples(ANGLES, ANGLES)
PARAMETERS = {
    "chsh": st.builds(
        lambda local, b, b_prime, extra: {
            "a_degrees": local[0], "a_prime_degrees": local[1],
            "b_degrees": b, "b_prime_degrees": b_prime, **extra,
        },
        LOCAL_PAIRS, ANGLES, ANGLES,
        st.fixed_dictionaries({}, optional={
            "remote_options": st.lists(st.sampled_from(REMOTE_OPTION_NAMES), max_size=4),
            "annotation": st.text(max_size=8), "assume_ci": st.booleans(),
        }),
    ),
    "counterfactual": st.builds(
        lambda theta, local: {
            "theta_degrees": theta, "a_degrees": local[0], "a_prime_degrees": local[1],
        },
        ANGLES, LOCAL_PAIRS,
    ),
    "nsbox": st.fixed_dictionaries({"isotropic_p": NUMBERS})
    | st.fixed_dictionaries({"correlators": st.lists(NUMBERS, max_size=5)})
    | st.fixed_dictionaries({"box": BOXES}),
    "classical": st.fixed_dictionaries(
        {"variant": st.sampled_from(["coin", "shapes"])},
        optional={"red_given_cube": NUMBERS, "blue_given_sphere": NUMBERS},
    ),
    "sweep": st.fixed_dictionaries(
        {"parameter": st.sampled_from(SWEEP_PARAMETERS),
         "start": GRID, "stop": GRID, "step": GRID},
        optional={"a_degrees": ANGLES, "a_prime_degrees": ANGLES},
    ),
}
PARAMETER_NAMES = ["a_degrees", "box", "isotropic_p", "step", "variant", "x"]


@st.composite
def scenario_documents(draw):
    """Mostly well-formed documents: one field in ten or so is wrong, missing
    or not known."""
    def rarely() -> bool:
        return draw(st.integers(0, 9)) == 9

    kind = draw(st.sampled_from(KINDS))
    document = {"id": draw(JSON_VALUES if rarely() else st.text(min_size=1, max_size=6))}
    if not rarely():
        document["kind"] = draw(JSON_VALUES) if rarely() else kind
    parameters = draw(PARAMETERS[kind])
    for key in list(parameters):
        if rarely():
            parameters[key] = draw(JSON_VALUES)
        elif rarely():
            del parameters[key]
    if rarely():
        parameters[draw(st.sampled_from(PARAMETER_NAMES) | st.text(max_size=6))] = (
            draw(NUMBERS | JSON_VALUES)
        )
    document["parameters"] = draw(JSON_VALUES) if rarely() else parameters
    if draw(st.booleans()):
        mc = st.integers(1, 10**7) | st.integers(-2, 2**64) | NUMBERS
        document["mc"] = draw(JSON_VALUES) if rarely() else draw(
            st.fixed_dictionaries({}, optional={"n_samples": mc, "seed": mc})
        )
    if rarely():
        document["notes"] = draw(st.lists(st.text(max_size=6)) | JSON_VALUES)
    if rarely():
        document[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return document


class TestBuiltins:
    def test_mandated_ids_exist_and_validate(self):
        catalog = builtin_scenarios()
        assert set(catalog) == MANDATED_IDS
        for scenario in catalog.values():
            assert validate_scenario(scenario) == []
            assert scenario.mc is None  # sampling is opt-in

    def test_standard_rows(self):
        rows = rows_by_quantity(run(builtin_scenarios()["paper-standard"]))
        s_row = rows["chsh_s"]
        assert abs(s_row.analytic - 2.0 * math.sqrt(2.0)) <= 1e-12
        assert "class=quantum_violating" in s_row.flags
        assert "chsh_violated" in s_row.flags
        assert rows["rho_min[remote=b]"].analytic == 0.4142135623730949
        assert abs(rows["rho_ci[remote=b]"].analytic - 0.5) <= 1e-12
        assert rows["rho_ci[remote=none]"].analytic == 0.0
        assert rows["max_info_theta_degrees"].analytic == 45.0
        assert rows["max_info_bits"].analytic == 0.18872187554086717
        assert rows["verdict_nonlocal"].analytic == 1.0
        assert rows["verdict_nonlocal"].flags == "true"
        # analytic-only run carries no sampling columns
        assert all(r.mc_value is None and r.mc_std_error is None for r in rows.values())

    def test_55_35_rows(self):
        rows = rows_by_quantity(run(builtin_scenarios()["paper-55-35"]))
        s_row = rows["chsh_s"]
        assert s_row.analytic == pytest.approx(1.6597891703110408, abs=1e-12)
        assert s_row.analytic < 2.0
        assert "class=local_compatible" in s_row.flags
        assert "chsh_violated" not in s_row.flags
        # the unreproduced figure is surfaced, never asserted as a value
        assert "1.442" in s_row.flags
        assert "not reproduced" in s_row.flags
        assert rows["rho_ci[remote=b_prime]"].analytic == 0.46984631039295427
        assert rows["verdict_rho_min_route"].analytic == 1.0
        assert rows["verdict_ci_route"].analytic == 1.0
        assert rows["verdict_nonlocal"].analytic == 1.0

    def test_pr_box_rows(self):
        rows = rows_by_quantity(run(builtin_scenarios()["paper-pr-box"]))
        assert rows["chsh_s_parity"].analytic == 4.0
        assert rows["chsh_s"].analytic == 4.0
        assert "class=super_quantum" in rows["chsh_s"].flags
        assert rows["rho_min[b=0]"].analytic == 1.0
        assert rows["rho_min[b=1]"].analytic == 1.0
        assert rows["rho_ci"].analytic == 1.0
        assert rows["isotropic_p"].analytic == 1.0
        for name in (
            "verdict_chsh_violated",
            "verdict_rho_min_positive",
            "verdict_ci_rho_positive",
        ):
            assert rows[name].analytic == 1.0

    def test_classical_rows(self):
        coin = rows_by_quantity(run(builtin_scenarios()["paper-coin"]))
        assert coin["rho"].analytic == 0.0
        shapes = rows_by_quantity(run(builtin_scenarios()["paper-shapes"]))
        assert shapes["rho"].analytic == 0.5


def count_table_builds(scenario: Scenario) -> tuple[int, int, list[ResultRow]]:
    """The calls to `mc.match_table`, and to every table builder that a
    runner hands to `_estimate` (match_table among them), in one run of the
    scenario, and its rows."""
    calls = {"match_table": 0, "builds": 0}
    match_table, estimate = scenarios.mc.match_table, scenarios._estimate

    def counted_match_table(p):
        calls["match_table"] += 1
        return match_table(p)

    def counted_estimate(cfg, stream, build, *args, **kwargs):
        def counted_build(*build_args):
            calls["builds"] += 1
            return build(*build_args)

        return estimate(cfg, stream, counted_build, *args, **kwargs)

    with mock.patch.object(scenarios.mc, "match_table", counted_match_table), \
            mock.patch.object(scenarios, "_estimate", counted_estimate):
        rows = run(scenario)
    return calls["match_table"], calls["builds"], rows


#: (match_table calls, table builds) of a Monte Carlo run of each scenario:
#: one build per sampled table, none for a row composed of other estimates.
MC_TABLE_BUILDS = {
    "paper-standard": (6, 6),  # four E rows, two rho_ci rows
    "paper-55-35": (6, 6),
    "paper-pr-box": (0, 4),  # four input pairs
    "paper-coin": (1, 1),
    "paper-shapes": (0, 1),
    "cf": (1, 1),  # the rho_ci row
}


class TestMonteCarloRows:
    def test_only_a_monte_carlo_run_builds_tables(self):
        documents = [*builtin_scenarios().values(), Scenario("cf", "counterfactual", {
            "theta_degrees": 30.0, "a_degrees": 0.0, "a_prime_degrees": 90.0,
        })]
        for scenario in documents:
            sid = scenario.scenario_id
            assert count_table_builds(scenario) == (0, 0, run(scenario)), sid
            sampled = scenario._replace(mc=SampleConfig(n_samples=1000, seed=7))
            *builds, rows = count_table_builds(sampled)
            assert tuple(builds) == MC_TABLE_BUILDS[sid], sid
            assert rows == run(sampled), sid
            assert any(row.mc_value is not None for row in rows), sid

    def test_mc_fields_present_only_where_sampled(self):
        scenario = builtin_scenarios()["paper-standard"]
        scenario = Scenario(
            scenario_id=scenario.scenario_id,
            kind=scenario.kind,
            parameters=scenario.parameters,
            mc=SampleConfig(n_samples=20_000, seed=11),
        )
        rows = rows_by_quantity(run(scenario))
        for name in (
            "E(a=0,b=45)",
            "E(a=0,b=135)",
            "E(a=90,b=45)",
            "E(a=90,b=135)",
            "chsh_s",
            "rho_ci[remote=b]",
            "rho_ci[remote=b_prime]",
        ):
            row = rows[name]
            assert row.mc_value is not None
            assert row.mc_std_error is not None
            assert abs(row.mc_value - row.analytic) <= 5.0 * row.mc_std_error
        for name in (
            "rho_min[remote=b]",
            "rho_ci[remote=none]",
            "max_info_bits",
            "verdict_nonlocal",
        ):
            assert rows[name].mc_value is None

    def test_chsh_s_estimate_sums_its_four_pairs_exactly(self):
        # Seed 0 rounds the standard error, seed 3 the value, differently under
        # the built-in sum() of Python 3.11, so the row would depend on Python.
        for seed in (0, 3):
            scenario = builtin_scenarios()["paper-standard"]._replace(
                mc=SampleConfig(n_samples=1000, seed=seed)
            )
            rows = run(scenario)
            pairs, s_row = rows[:4], rows[4]
            assert s_row.quantity == "chsh_s"
            signed = [sign * r.mc_value for sign, r in zip((1.0, -1.0, 1.0, 1.0), pairs)]
            assert s_row.mc_value == abs(math.fsum(signed))
            assert s_row.mc_std_error == math.sqrt(math.fsum(r.mc_std_error * r.mc_std_error for r in pairs))

    def test_runs_are_reproducible(self):
        scenario = Scenario(
            scenario_id="repro",
            kind="classical",
            parameters={"variant": "shapes"},
            mc=SampleConfig(n_samples=10_000, seed=5),
        )
        assert run(scenario) == run(scenario)
        reseeded = Scenario(
            scenario_id="repro",
            kind="classical",
            parameters={"variant": "shapes"},
            mc=SampleConfig(n_samples=10_000, seed=6),
        )
        assert run(reseeded)[0].mc_value != run(scenario)[0].mc_value


class TestChshKind:
    @given(
        st.floats(-360.0, 360.0), st.sampled_from([-90.0, 90.0]),
        st.floats(-360.0, 360.0), st.floats(-360.0, 360.0),
    )
    def test_chsh_s_row_equals_the_reference_formula(self, a, turn, b, b_prime):
        degrees = (a, a + turn, b, b_prime)
        keys = ("a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees")
        row = chsh_s_row(Scenario("quad", "chsh", dict(zip(keys, degrees))))
        s = chsh_s(Quad(*map(Direction.from_degrees, degrees)))
        assert row.analytic.hex() == s.hex()
        flags = row.flags.split(";")
        assert flags[0] == f"class={chsh_label(s)}"
        assert ("chsh_violated" in flags) == (s > CLASSICAL_BOUND)


class TestCounterfactualKind:
    def test_rows(self):
        scenario = Scenario(
            scenario_id="cf",
            kind="counterfactual",
            parameters={
                "theta_degrees": 45.0,
                "a_degrees": 0.0,
                "a_prime_degrees": 90.0,
            },
        )
        rows = rows_by_quantity(run(scenario))
        assert rows["rho_min"].analytic == 0.4142135623730949
        assert abs(rows["rho_ci"].analytic - 0.5) <= 1e-12
        assert rows["total_bits"].analytic == 1.0 + rows["info_bits"].analytic


TOL = nsb.CONSTRAINT_TOL
PR_BOX = to_labeled_dict(nsb.make_isotropic(1.0))
#: The PR box with its eight nonzero cells at 0.5 + 2e-10: isotropic at a
#: mean target rate of 1 + 4e-10.
PR_BOX_RAISED = {key: value + 2e-10 if value else 0.0 for key, value in PR_BOX.items()}
#: The PR box with 5e-10 moved out of a zero cell into its neighbour.
PR_BOX_MOVED = {**PR_BOX, "P(0,1|0,0)": -5e-10, "P(0,0|0,0)": 0.5 + 5e-10}


@st.composite
def boxes_within_the_tolerance(draw) -> dict[str, float]:
    """A valid box's cells, each moved by up to TOL / 4, and up to TOL / 2
    moved from one cell to another of the same input pair, zero cells
    included, kept only where the box still validates."""
    e = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    quad = draw(e.map(lambda x: [x, x, x, -x]) | st.lists(e, min_size=4, max_size=4))
    cells = to_labeled_dict(nsb.from_correlators(*quad))
    moves = st.sampled_from([0.0, 2e-10, -2e-10, TOL / 4, -TOL / 4]) | st.floats(-TOL / 4, TOL / 4)
    cells = {key: value + draw(moves) for key, value in cells.items()}
    bits = ["0,0", "0,1", "1,0", "1,1"]
    inputs = draw(st.sampled_from(bits))
    source, target = draw(st.permutations(bits))[:2]  # outputs (A, B)
    amount = draw(st.sampled_from([0.0, 5e-10, TOL / 2]) | st.floats(0.0, TOL / 2))
    cells[f"P({source}|{inputs})"] -= amount
    cells[f"P({target}|{inputs})"] += amount
    assume(nsb.validate_no_signalling(nsb.from_labeled_dict(cells)) == [])
    return cells


class TestNsboxKind:
    @settings(max_examples=100, deadline=None)
    @given(cells=boxes_within_the_tolerance())
    @example(cells=PR_BOX_RAISED)
    @example(cells=PR_BOX_MOVED)
    def test_every_box_that_validates_runs(self, tmp_path_factory, cells):
        path = tmp_path_factory.getbasetemp() / "box.json"
        path.write_text(json.dumps({"id": "b", "kind": "nsbox", "parameters": {"box": cells}}))
        for argv in (["validate", str(path)], ["run", str(path)],
                     ["run", str(path), "--mc", "--samples", "1000"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(argv) == 0, (argv, err.getvalue())

    def test_a_box_past_the_unit_range_by_the_tolerance_is_clamped(self):
        # Its isotropic parameter reads 1, and its negative cell is sampled at 0.
        for cells in (PR_BOX_RAISED, PR_BOX_MOVED):
            assert nsb.isotropic_parameter(nsb.from_labeled_dict(cells)) == 1.0
        table = scenarios._outputs(nsb.from_labeled_dict(PR_BOX_MOVED), 0, 0)
        assert table[1] == 0.0 and min(table) == 0.0 and abs(sum(table) - 1.0) <= 1e-15

    def test_explicit_table_equals_isotropic_construction(self):
        explicit = Scenario(
            scenario_id="pr-explicit",
            kind="nsbox",
            parameters={"box": to_labeled_dict(nsb.make_isotropic(1.0))},
        )
        via_p = builtin_scenarios()["paper-pr-box"]
        got = [(r.quantity, r.analytic) for r in run(explicit)]
        want = [(r.quantity, r.analytic) for r in run(via_p)]
        assert got == want

    def test_correlator_parameters(self):
        scenario = Scenario(
            scenario_id="corr-box",
            kind="nsbox",
            parameters={"correlators": [0.5, 0.5, 0.5, -0.5]},
        )
        rows = rows_by_quantity(run(scenario))
        assert rows["chsh_s"].analytic == pytest.approx(2.0, abs=1e-12)
        assert "isotropic_p" in rows  # equal target rates on every pair

    def test_run_parses_and_checks_an_explicit_box_once(self):
        # The validator hands the box it built and checked to the evaluator.
        scenario = Scenario(
            scenario_id="pr-explicit", kind="nsbox",
            parameters={"box": to_labeled_dict(nsb.make_isotropic(1.0))},
        )
        with mock.patch.object(nsb, "from_labeled_dict", wraps=nsb.from_labeled_dict) as parse, \
                mock.patch.object(
                    nsb, "validate_no_signalling", wraps=nsb.validate_no_signalling
                ) as check:
            run(scenario)
        assert (parse.call_count, check.call_count) == (1, 1)

    def test_signalling_box_rejected_at_validation(self):
        table = to_labeled_dict(nsb.make_isotropic(1.0))
        table["P(0,0|0,0)"] = 0.6  # breaks normalization and marginals
        table["P(1,1|0,0)"] = 0.3
        scenario = Scenario(
            scenario_id="bad-box",
            kind="nsbox",
            parameters={"box": table},
        )
        problems = validate_scenario(scenario)
        assert problems
        assert any("violates" in p for p in problems)

    def test_non_finite_box_entry_is_one_named_problem(self):
        for value in (math.nan, math.inf, -math.inf, 10**400, -(10**400)):
            table = to_labeled_dict(nsb.make_isotropic(1.0))
            table["P(0,1|1,1)"] = value
            scenario = Scenario(
                scenario_id="bad-box", kind="nsbox", parameters={"box": table},
            )
            assert validate_scenario(scenario) == [
                "parameters.box: box entry 'P(0,1|1,1)' must be a finite "
                f"number, got {value!r}"
            ]

    def test_box_key_must_match_exactly(self):
        # A regex ending in `$` also matches before a final newline, so a key
        # "P(0,0|0,0)\n" was read as cell 0: beside the real key it passed
        # silently, and in its place the message named only the missing key.
        for key in ("P(0,0|0,0)\n", " P(0,0|0,0)", "p(0,0|0,0)", 0, None):
            unknown = f"parameters.box: unrecognized box entry key {key!r}"
            table = to_labeled_dict(nsb.make_isotropic(1.0))
            table[key] = table["P(0,0|0,0)"]
            scenario = Scenario(scenario_id="bad-box", kind="nsbox", parameters={"box": table})
            assert validate_scenario(scenario) == [unknown]
            # In place of the real key it is one fault, a mistyped key.
            del table["P(0,0|0,0)"]
            assert validate_scenario(scenario) == [f"{unknown} (expected P(0,0|0,0))"]
        # With two, which stray key stands for which missing key is not known.
        table = to_labeled_dict(nsb.make_isotropic(1.0))
        table["P(0,0|0,0) "] = table.pop("P(0,0|0,0)")
        table["P(1,1|1,1) "] = table.pop("P(1,1|1,1)")
        scenario = Scenario(scenario_id="bad-box", kind="nsbox", parameters={"box": table})
        assert validate_scenario(scenario) == [
            "parameters.box: unrecognized box entry key 'P(0,0|0,0) '",
            "parameters.box: unrecognized box entry key 'P(1,1|1,1) '",
            "parameters.box: missing box entry P(0,0|0,0)",
            "parameters.box: missing box entry P(1,1|1,1)",
        ]


#: A valid document of each kind that has numbers, and the place of each
#: number in its parameters: a key, or a key and a list index.
NUMERIC_PARAMETERS = [
    *(("chsh", {"a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 45,
                "b_prime_degrees": 135}, (key,))
      for key in ("a_degrees", "a_prime_degrees", "b_degrees", "b_prime_degrees")),
    *(("counterfactual", {"theta_degrees": 45, "a_degrees": 0, "a_prime_degrees": 90}, (key,))
      for key in ("theta_degrees", "a_degrees", "a_prime_degrees")),
    ("nsbox", {"isotropic_p": 0.5}, ("isotropic_p",)),
    *(("nsbox", {"correlators": [0.3, -0.2, 0.7, -0.5]}, ("correlators", i)) for i in range(4)),
    *(("classical", {"variant": "shapes", "red_given_cube": 0.9, "blue_given_sphere": 0.6},
       (key,)) for key in ("red_given_cube", "blue_given_sphere")),
    *(("sweep", {"parameter": "theta_degrees", "start": 0, "stop": 90, "step": 45,
                 "a_degrees": 0, "a_prime_degrees": 90}, (key,))
      for key in ("start", "stop", "step", "a_degrees", "a_prime_degrees")),
]


class TestValidation:
    @pytest.mark.parametrize(
        "kind, parameters, place", NUMERIC_PARAMETERS,
        ids=["-".join(map(str, (kind, *place))) for kind, _, place in NUMERIC_PARAMETERS],
    )
    def test_every_number_must_be_finite(self, kind, parameters, place):
        name = place[0] + "".join(f"[{i}]" for i in place[1:])
        assert validate_scenario(self.mk(kind, parameters)) == []
        for value in ("x", math.nan, math.inf, True):
            changed = json.loads(json.dumps(parameters))
            (changed[place[0]] if len(place) == 2 else changed)[place[-1]] = value
            assert validate_scenario(self.mk(kind, changed)) == [
                f"parameters.{name} must be a finite number, got {value!r}"
            ]

    def mk(self, kind: str, parameters: dict) -> Scenario:
        return Scenario(scenario_id="x", kind=kind, parameters=parameters)

    def test_unknown_kind(self):
        problems = validate_scenario(self.mk("mystery", {}))
        assert any("kind" in p for p in problems)

    def test_parameters_not_an_object_is_one_problem(self):
        # The kind's checks would only report every parameter missing.
        for parameters in (None, [], "coin"):
            for kind in KINDS:
                problems = validate_scenario(self.mk(kind, parameters))
                assert problems == ["parameters must be an object"], (kind, parameters)
        # A bad kind and bad parameters are two faults, reported side by side.
        assert validate_scenario(self.mk("mystery", [])) == [
            f"kind must be one of {KINDS}, got 'mystery'", "parameters must be an object",
        ]

    def test_chsh_missing_angles_all_reported(self):
        problems = validate_scenario(self.mk("chsh", {}))
        joined = "\n".join(problems)
        for key in (
            "a_degrees",
            "a_prime_degrees",
            "b_degrees",
            "b_prime_degrees",
        ):
            assert key in joined

    def test_chsh_non_orthogonal_local_pair(self):
        problems = validate_scenario(
            self.mk(
                "chsh",
                {
                    "a_degrees": 0.0,
                    "a_prime_degrees": 80.0,
                    "b_degrees": 45.0,
                    "b_prime_degrees": 135.0,
                },
            )
        )
        assert any("orthogonal" in p for p in problems)

    def test_chsh_bad_remote_option(self):
        problems = validate_scenario(
            self.mk(
                "chsh",
                {
                    "a_degrees": 0.0,
                    "a_prime_degrees": 90.0,
                    "b_degrees": 45.0,
                    "b_prime_degrees": 135.0,
                    "remote_options": ["none", "b_double_prime"],
                },
            )
        )
        assert any("remote_options" in p for p in problems)

    def test_chsh_repeated_remote_option_is_named(self, tmp_path):
        # A repeat would print its rows twice, with --mc from two substreams.
        params = {
            "a_degrees": 0.0, "a_prime_degrees": 90.0, "b_degrees": 45.0,
            "b_prime_degrees": 135.0, "remote_options": ["b", "none", "b", "b"],
        }
        assert validate_scenario(self.mk("chsh", params)) == [
            "parameters.remote_options lists 'b' 3 times; each option may appear once"
        ]
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"id": "repeat", "kind": "chsh", "parameters": params}))
        for argv in (["validate", str(path)], ["run", str(path), "--mc", "--samples", "100"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 1
            assert out.getvalue() == ""
            assert "'b' 3 times" in err.getvalue()

    def test_chsh_null_remote_options_take_the_default(self):
        # Validation reads a null list as absent, and so does the run.
        params = {
            "a_degrees": 0.0, "a_prime_degrees": 90.0, "b_degrees": 45.0,
            "b_prime_degrees": 135.0,
        }
        scenario = self.mk("chsh", dict(params, remote_options=None))
        assert validate_scenario(scenario) == []
        assert run(scenario) == run(self.mk("chsh", params))

    def test_chsh_extra_parameter_rejected(self):
        problems = validate_scenario(
            self.mk(
                "chsh",
                {
                    "a_degrees": 0.0,
                    "a_prime_degrees": 90.0,
                    "b_degrees": 45.0,
                    "b_prime_degrees": 135.0,
                    "plot": True,
                },
            )
        )
        assert any("plot" in p for p in problems)

    def test_nsbox_requires_exactly_one_source(self):
        none_given = validate_scenario(self.mk("nsbox", {}))
        assert any("exactly one" in p for p in none_given)
        both_given = validate_scenario(
            self.mk(
                "nsbox",
                {"isotropic_p": 0.8, "correlators": [0.5, 0.5, 0.5, -0.5]},
            )
        )
        assert any("exactly one" in p for p in both_given)

    def test_nsbox_isotropic_p_range(self):
        problems = validate_scenario(self.mk("nsbox", {"isotropic_p": 1.2}))
        assert any("isotropic_p" in p for p in problems)
        # an integer beyond the float range is one named problem, not a crash
        problems = validate_scenario(self.mk("nsbox", {"isotropic_p": 10**400}))
        assert problems == [
            f"parameters.isotropic_p must be a finite number, got {10**400!r}"
        ]

    def test_lower_bound_alone_is_named_alone(self):
        problems = []
        assert _check_number({"x": -0.5}, "x", problems, low=0.0) is None
        assert problems == ["parameters.x must be >= 0, got -0.5"]
        assert _check_number({"x": 1e300}, "x", problems, low=0.0) == 1e300
        assert len(problems) == 1

    def test_upper_bound_alone_is_named_alone(self):
        problems = []
        assert _check_number({"x": 2}, "x", problems, high=1.5) is None
        assert problems == ["parameters.x must be <= 1.5, got 2"]
        assert _check_number({"x": -1e300}, "x", problems, high=1.5) == -1e300
        assert len(problems) == 1
        # Both bounds keep their message.
        assert _check_number({"x": 2}, "x", problems, low=0.0, high=1.0) is None
        assert problems[1] == "parameters.x must lie in [0, 1], got 2"

    def test_classical_variant_and_rates(self):
        problems = validate_scenario(self.mk("classical", {"variant": "dice"}))
        assert any("variant" in p for p in problems)
        problems = validate_scenario(
            self.mk(
                "classical",
                {"variant": "shapes", "red_given_cube": 1.5, "blue_given_sphere": 0.75},
            )
        )
        assert any("red_given_cube" in p for p in problems)

    def test_sweep_validation(self):
        assert any(
            "parameter" in p
            for p in validate_scenario(self.mk("sweep", {"parameter": "banana"}))
        )
        base = {"parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 0.01}
        assert validate_scenario(self.mk("sweep", dict(base))) == []
        bad_step = dict(base, step=0.0)
        assert any("step" in p for p in validate_scenario(self.mk("sweep", bad_step)))
        reversed_range = dict(base, start=1.0, stop=0.0)
        assert any(
            "stop" in p for p in validate_scenario(self.mk("sweep", reversed_range))
        )
        out_of_range = dict(base, stop=2.0)
        assert validate_scenario(self.mk("sweep", out_of_range))
        # the grid cap: 10^6 points pass, one more does not, also where the
        # span is a hair short of a whole number of steps, and a count beyond
        # the float range is still named
        theta = {"parameter": "theta_degrees", "start": 0.0, "step": 1.0}
        assert validate_scenario(self.mk("sweep", dict(theta, stop=999_999.0))) == []
        for params, count in (
            (dict(theta, stop=1_000_000.0), "1000001"),
            (dict(theta, stop=999_999.9999999999), "1000001"),
            (dict(base, step=1e-12), "1.000000e+12"),
            (dict(base, step=1e-320), "1.000011e+320"),
        ):
            problems = validate_scenario(self.mk("sweep", params))
            assert len(problems) == 1
            assert f"gives {count} grid points" in problems[0]
            assert str(MAX_GRID_POINTS) in problems[0]
        # Under the cap, a span or a last point beyond the float range is named.
        for params, needle in (
            (dict(theta, start=-1e308, stop=1e308, step=1e303), "spans more than"),
            (dict(theta, start=1.7e308, stop=sys.float_info.max, step=9.769313487208508e306),
             "puts the last grid point beyond"),
        ):
            assert [needle in p for p in validate_scenario(self.mk("sweep", params))] == [True]
        # A grid spanning 1.6e308 still fits, with all its points.
        edge = dict(theta, start=-8e307, stop=8e307, step=1.6e303)
        assert validate_scenario(self.mk("sweep", edge)) == []
        assert len(sweep_grid(-8e307, 8e307, 1.6e303)) == 100_001
        angles_on_isotropic = dict(base, a_degrees=0.0)
        assert any(
            "a_degrees" in p
            for p in validate_scenario(self.mk("sweep", angles_on_isotropic))
        )

    @settings(max_examples=300)
    @given(
        start=st.sampled_from([0.0, -30.5, 0.125]) | st.floats(-1e6, 1e6),
        step=st.sampled_from([1.0, 0.0625, 0.1, 1e-3]) | st.floats(1e-6, 1e3),
        steps=st.integers(MAX_GRID_POINTS - 3, MAX_GRID_POINTS + 2),
        ulps=st.integers(-3, 3),
    )
    def test_no_accepted_sweep_builds_more_than_the_cap(self, start, step, steps, ulps):
        # A stop near a whole number of steps, where a count can round either way.
        stop = start + steps * step
        for _ in range(abs(ulps)):
            stop = math.nextafter(stop, math.copysign(math.inf, ulps))
        params = {"parameter": "theta_degrees", "start": start, "stop": stop, "step": step}
        problems, checked = _checked(self.mk("sweep", params))
        built = _grid_steps(start, stop, step) + 1  # the points that the sweep builds
        if built <= MAX_GRID_POINTS:
            assert problems == []
            assert checked[3] == built  # the size that the sweep's blocks cover
        else:
            assert len(problems) == 1
            assert f"grid points, more than the {MAX_GRID_POINTS} allowed" in problems[0]

    def test_every_measured_unmeasured_pair_must_be_orthogonal(self):
        problem = (
            "parameters.a_degrees and parameters.a_prime_degrees must be orthogonal "
            "directions, got dot product 0.7071067811865476"
        )
        theta_sweep = {"parameter": "theta_degrees", "start": 0, "stop": 90, "step": 45}
        for kind, params in (
            ("chsh", {"a_degrees": 0, "a_prime_degrees": 45, "b_degrees": 45,
                      "b_prime_degrees": 135}),
            ("counterfactual", {"theta_degrees": 45, "a_degrees": 0, "a_prime_degrees": 45}),
            ("sweep", dict(theta_sweep, a_prime_degrees=45)),  # a defaults to 0
        ):
            assert validate_scenario(self.mk(kind, params)) == [problem]
        for kind, params in (
            ("counterfactual", {"theta_degrees": 45, "a_degrees": 12.5,
                                "a_prime_degrees": -77.5}),
            ("sweep", dict(theta_sweep, a_degrees=12.5, a_prime_degrees=-77.5)),
            ("sweep", theta_sweep),  # 0 and 90
        ):
            assert validate_scenario(self.mk(kind, params)) == []

    def test_run_rejects_invalid_scenario(self):
        with pytest.raises(ValidationError):
            run(self.mk("chsh", {}))

    def test_run_rejects_sweep_kind(self):
        scenario = self.mk(
            "sweep",
            {"parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 0.5},
        )
        with pytest.raises(ValidationError, match="sweep_columns or the sweep command"):
            run(scenario)


class TestScenarioFiles:
    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(
            json.dumps(
                {
                    "id": "from-file",
                    "kind": "classical",
                    "parameters": {"variant": "coin"},
                    "mc": {"n_samples": 1000, "seed": 3},
                    "notes": ["hand written"],
                }
            )
        )
        scenario = load_scenario_file(str(path))
        assert scenario.scenario_id == "from-file"
        assert scenario.mc == SampleConfig(n_samples=1000, seed=3)
        assert scenario.notes == ("hand written",)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_scenario_file(str(path))
        # An integer literal over Python's 4300-digit limit fails to parse;
        # without that limit it is a number beyond the float range.
        path.write_text(
            '{"id": "x", "kind": "nsbox", "parameters": {"isotropic_p": 1'
            + "0" * 5000 + "}}"
        )
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_file(str(path))
        (message,) = excinfo.value.messages
        assert "not valid JSON" in message or "isotropic_p" in message
        # Bytes that are not UTF-8 (a UTF-16 byte-order mark), and nesting
        # deeper than the parser's recursion limit.
        for content, needle in (
            (b"\xff\xfe{}", "not valid UTF-8"),
            (b"[" * 100_000, "not valid JSON: nested too deeply"),
        ):
            path.write_bytes(content)
            with pytest.raises(ValidationError) as excinfo:
                load_scenario_file(str(path))
            (message,) = excinfo.value.messages
            assert needle in message

    def test_load_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                {
                    "id": "x",
                    "kind": "classical",
                    "parameters": {"variant": "coin"},
                    "plotting": True,
                }
            )
        )
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_file(str(path))
        assert any("plotting" in m for m in excinfo.value.messages)

    def test_load_bad_mc_block(self, tmp_path):
        for block, needle in (
            ({"n_samples": 0, "seed": 3}, "n_samples"),
            ({"n_samples": 100, "seed": -1}, "seed"),
            ({"n_samples": 100, "seed": 3, "burn_in": 9}, "burn_in"),
            ({"n_samples": True, "seed": 3}, "n_samples"),
            ({"n_samples": 100, "seed": True}, "seed"),
        ):
            path = tmp_path / "badmc.json"
            path.write_text(
                json.dumps(
                    {
                        "id": "x",
                        "kind": "classical",
                        "parameters": {"variant": "coin"},
                        "mc": block,
                    }
                )
            )
            with pytest.raises(ValidationError) as excinfo:
                load_scenario_file(str(path))
            assert any(needle in m for m in excinfo.value.messages)

    def test_load_collects_box_problems(self, tmp_path):
        table = to_labeled_dict(nsb.make_isotropic(1.0))
        del table["P(0,0|0,0)"]
        table["P(2,0|0,0)"] = 0.5
        path = tmp_path / "badbox.json"
        path.write_text(
            json.dumps({"id": "x", "kind": "nsbox", "parameters": {"box": table}})
        )
        with pytest.raises(ValidationError) as excinfo:
            load_scenario_file(str(path))
        joined = "\n".join(excinfo.value.messages)
        assert "P(0,0|0,0)" in joined
        assert "P(2,0|0,0)" in joined

    def test_shipped_scenarios_match_builtins_where_named_alike(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
        catalog = builtin_scenarios()
        checked = 0
        for path in sorted(root.glob("*.json")):
            scenario = load_scenario_file(str(path))
            assert validate_scenario(scenario) == []
            if scenario.scenario_id in catalog:
                assert scenario == catalog[scenario.scenario_id]
                checked += 1
        assert checked == len(MANDATED_IDS)

    @settings(max_examples=300, deadline=None)
    @given(document=scenario_documents() | JSON_VALUES)
    def test_any_document_is_a_scenario_or_named_problems(
        self, tmp_path_factory, document
    ):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(document))
        try:
            load_scenario_file(str(path))
        except ValidationError as exc:
            assert exc.messages
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        assert code in (0, 1)
        if code == 0:
            assert out.getvalue().startswith("ok: ") and err.getvalue() == ""
        else:
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("error: ") for line in lines)
            assert "Traceback" not in err.getvalue()


class TestSweeps:
    def test_grid_points_hit_exact_decimals(self):
        grid = sweep_grid(0.0, 1.0, 0.01)
        assert len(grid) == 101
        assert grid[75] == 0.75  # 75 * 0.01 is exact in binary
        assert grid[0] == 0.0
        assert grid[100] == pytest.approx(1.0, abs=1e-12)

    def test_grid_points_degenerate_and_coarse(self):
        assert sweep_grid(0.3, 0.3, 0.1) == [0.3]
        assert sweep_grid(0.0, 1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_theta_sweep_rows(self):
        scenario = Scenario(
            scenario_id="sweep-theta",
            kind="sweep",
            parameters={
                "parameter": "theta_degrees",
                "start": 0.0,
                "stop": 90.0,
                "step": 1.0,
            },
        )
        records = sweep_records(scenario)
        assert len(records) == 91
        assert list(records[0]) == ["scenario", "theta_degrees", "rho_ci", "info_bits"]
        assert all(r["scenario"] == "sweep-theta" for r in records)
        best = max(records, key=lambda r: r["info_bits"])
        assert best["theta_degrees"] == 45.0
        assert best["rho_ci"] == pytest.approx(0.5, abs=1e-12)
        assert best["info_bits"] == pytest.approx(0.18872187554086717, abs=1e-12)

    def test_isotropic_sweep_rows(self):
        scenario = Scenario(
            scenario_id="sweep-p",
            kind="sweep",
            parameters={
                "parameter": "isotropic_p",
                "start": 0.0,
                "stop": 1.0,
                "step": 0.01,
            },
        )
        records = sweep_records(scenario)
        assert len(records) == 101
        assert list(records[0]) == [
            "scenario",
            "isotropic_p",
            "s_ns",
            "s_e",
            "rho_min",
            "rho_ci",
        ]
        at_34 = next(r for r in records if r["isotropic_p"] == 0.75)
        assert at_34["rho_min"] == 0.0
        assert at_34["s_ns"] == 3.0
        top = records[-1]
        assert top["s_ns"] == pytest.approx(4.0, abs=1e-12)
        assert top["rho_ci"] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _bits(records):
        """Keys in order, and every float by its exact bits (sign of zero too)."""
        return [
            [(k, v.hex() if type(v) is float else v) for k, v in rec.items()]
            for rec in records
        ]

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 1.0, 1e-3),
        (0.0, 1.0, 0.0010000000000001),  # the last point, 1 + 1e-13, is clamped
        (0.0, 1e-320, 5e-324),  # subnormal p
        (1.0 - 1e-12, 1.0, 3e-15),
        *(
            (lo, lo + (1.0 - lo) * w, (1.0 - lo) * w / n)
            for lo, w, n in zip([0.0, 0.1234, 0.4999, 0.731, 0.98765],
                                [1.0, 0.5, 0.001, 0.27, 0.9], [997, 1013, 409, 3001, 64])
        ),
    ])
    def test_isotropic_rows_equal_the_per_point_definitions(self, start, stop, step):
        scenario = Scenario("s", "sweep", {
            "parameter": "isotropic_p", "start": start, "stop": stop, "step": step,
        })
        reference = []
        for p in grid_points(start, stop, step):
            p = min(max(p, 0.0), 1.0)
            box = nsb.make_isotropic(p)
            reference.append({
                "scenario": "s", "isotropic_p": p, "s_ns": nsb.chsh_s_ns(box),
                "s_e": nsb.chsh_s_e(box), "rho_min": nsb._target_pair(box, 0)[0],
                "rho_ci": nsb.rho_ci_ns(p),
            })
        assert self._bits(sweep_records(scenario)) == self._bits(reference)

    @pytest.mark.parametrize("start, stop, step, a, a_prime", [
        (-720.0, 720.0, 0.37, 17.5, 107.5),
        (-720.0, 720.0, 1.1, -33.25, 56.75),
        (0.0, 1e-318, 1e-321, 0.0, 90.0),
        (1e300, 1e300 + 500 * 1e290, 1e290, 12.0, 102.0),
        (-1e300, -1e300 + 500 * 1e290, 1e290, 0.0, 90.0),
    ])
    def test_theta_rows_equal_the_per_point_definitions(self, start, stop, step, a, a_prime):
        scenario = Scenario("s", "sweep", {
            "parameter": "theta_degrees", "start": start, "stop": stop, "step": step,
            "a_degrees": a, "a_prime_degrees": a_prime,
        })
        reference = []
        for theta in grid_points(start, stop, step):
            rows = rows_by_quantity(run(Scenario("s", "counterfactual", {
                "theta_degrees": theta, "a_degrees": a, "a_prime_degrees": a_prime,
            })))
            reference.append({
                "scenario": "s", "theta_degrees": theta,
                "rho_ci": rows["rho_ci"].analytic, "info_bits": rows["info_bits"].analytic,
            })
        assert len(reference) > 400
        assert self._bits(sweep_records(scenario)) == self._bits(reference)


class TestRecords:
    def test_as_record_shape(self):
        row = ResultRow(
            scenario="s", quantity="q", analytic=1.25, mc_value=None, mc_std_error=None
        )
        record = row._asdict()
        assert list(record) == [
            "scenario",
            "quantity",
            "analytic",
            "mc_value",
            "mc_std_error",
            "flags",
        ]
        assert record["analytic"] == 1.25
        assert record["mc_value"] is None
        assert record["flags"] == ""

    def test_scenarios_do_not_share_default_parameters(self):
        first, second = Scenario("a", "chsh"), Scenario("b", "chsh")
        first.parameters["a_degrees"] = 0.0
        assert second.parameters == {}
        assert first._replace(scenario_id="c").parameters is first.parameters
        assert "parameters must be an object" in validate_scenario(Scenario("d", "chsh", None))
        assert repr(Scenario("e", "sweep")) == (
            "Scenario(scenario_id='e', kind='sweep', parameters={}, mc=None, notes=())"
        )

    def test_records_are_immutable_tuples(self):
        q = builtin_quad("paper-standard")
        records = [
            ResultRow("s", "q", 1.25), Scenario("a", "chsh"), Direction(1.0), q,
            SampleConfig(), EmpiricalEstimate(0.5, 0.01, 100),
            nsb.ConstraintViolation("normalization", "sum P(.,.|0,0)", 0.1),
        ]
        for record in records:
            assert isinstance(record, tuple)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None
        assert ResultRow("s", "q", 1.25) == ("s", "q", 1.25, None, None, "")

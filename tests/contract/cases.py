"""The CLI contract's cases: argv, plus the files each case reads.

Every case runs in a fresh working directory that holds a copy of the
repository's `scenarios/`, so paths in argv and in messages are relative.
Documents are written into that directory as `doc.json` before the case
runs. Known defects are kept as they are: a case is never left out, or
changed, because its output is wrong. Its mend then shows as a diff in
`expected.json`.
"""
from __future__ import annotations

import json
from typing import NamedTuple


class Case(NamedTuple):
    name: str
    argv: tuple[str, ...]
    #: (relative path, text or bytes) written into the working directory.
    files: tuple = ()
    #: Run with a standard output whose reader has gone: every write raises
    #: BrokenPipeError, as on a pipe into `head` that has exited.
    closed_stdout: bool = False


BUILTINS = ("paper-standard", "paper-55-35", "paper-pr-box", "paper-coin", "paper-shapes")
FILES = tuple(f"scenarios/{name}.json" for name in (
    "paper-55-35", "paper-coin", "paper-pr-box", "paper-shapes", "paper-standard",
    "pr-box-table", "sweep-isotropic",
))
FORMATS = ("table", "csv", "json")
#: Seeded Monte Carlo, small enough to run every case in a few seconds.
MC = ("--mc", "--samples", "1000", "--seed", "7")
COMMANDS = ("run", "sweep", "list", "validate")
#: Grid sizes around the sweep block of 4,096 points.
SWEEP_POINTS = (4095, 4096, 4097, 8193)


def sweep_argv(parameter: str, points: int) -> tuple[str, ...]:
    """A sweep of exactly `points` points, off the round numbers."""
    if parameter == "isotropic_p":
        start, step, extra = 0.125, 0.75 / (points - 1), ()
    else:
        start, step = -30.5, 0.0625
        extra = ("--a-degrees=12.5", "--a-prime-degrees=-77.5")
    stop = start + (points - 1) * step
    return (
        "sweep", f"--parameter={parameter}",
        f"--start={start!r}", f"--stop={stop!r}", f"--step={step!r}", *extra,
    )


def doc(document) -> str:
    return json.dumps(document)


def chsh(**changes) -> str:
    """paper-standard's angles, with some parameters changed or added."""
    return of_kind("chsh", {"a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 45,
                            "b_prime_degrees": 135, **changes})


def of_kind(name: str, parameters) -> str:
    return doc({"id": "k", "kind": name, "parameters": parameters})


PR_BOX = {
    f"P({A},{B}|{a},{b})": 0.5 if (A ^ B) == (a & b) else 0.0
    for a in (0, 1) for b in (0, 1) for A in (0, 1) for B in (0, 1)
}
COIN = {"variant": "coin"}
SWEEP = {"parameter": "isotropic_p", "start": 0.0, "stop": 1.0, "step": 0.5}

#: Documents that run: edges, and the known defects as they print today.
VALID_DOCUMENTS = {
    # a = 0, a' = 90: a remote at 225 degrees gives rho_min -1, at 45 0.414.
    "theta-225": of_kind("counterfactual", {"theta_degrees": 225, "a_degrees": 0,
                                            "a_prime_degrees": 90}),
    "theta-45": of_kind("counterfactual", {"theta_degrees": 45, "a_degrees": 0,
                                           "a_prime_degrees": 90}),
    # chsh_s prints 2.2e-16 for a quad whose correlators cancel.
    "quad-0-90-135-45": chsh(b_degrees=135, b_prime_degrees=45),
    # Labels and flags print angles to 6 significant digits.
    "angle-labels": chsh(b_degrees=45.0000001, b_prime_degrees=135.1234567),
    "negative-angles": chsh(a_degrees=-90, a_prime_degrees=-180, b_degrees=-45,
                            b_prime_degrees=-315),
    "remote-options-null": doc({"id": "c", "kind": "chsh", "parameters": {
        "a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 45, "b_prime_degrees": 135,
        "remote_options": None}}),
    "options-ordered": chsh(remote_options=["b_prime", "none"], assume_ci=False,
                            annotation="note; with a semicolon"),
    # A relabelled PR box reads as local; an unreachable quad as quantum.
    "relabelled-pr-box": of_kind("nsbox", {"correlators": [-1, 1, 1, 1]}),
    "correlators-quantum-region": of_kind("nsbox", {"correlators": [1, 1, 1, 0.5]}),
    "isotropic-0": of_kind("nsbox", {"isotropic_p": 0}),
    "isotropic-0.75": of_kind("nsbox", {"isotropic_p": 0.75}),
    "pr-box-table": of_kind("nsbox", {"box": PR_BOX}),
    "shapes-defaults": of_kind("classical", {"variant": "shapes"}),
    "shapes-0.9-0.6": of_kind("classical", {"variant": "shapes", "red_given_cube": 0.9,
                                            "blue_given_sphere": 0.6}),
    "mc-block": doc({"id": "m", "kind": "classical", "parameters": COIN,
                     "mc": {"n_samples": 4000, "seed": 9}, "notes": ["a", "b"]}),
    "mc-block-n-only": doc({"id": "m", "kind": "classical", "parameters": COIN,
                            "mc": {"n_samples": 1000}}),
    "sweep-one-point": of_kind("sweep", {**SWEEP, "stop": 0.0}),
    "sweep-theta-defaults": of_kind("sweep", {"parameter": "theta_degrees", "start": -90,
                                              "stop": 450, "step": 22.5}),
    # a and a' must be orthogonal here, as in chsh: exit 1.
    "counterfactual-45-apart": of_kind("counterfactual", {
        "theta_degrees": 45, "a_degrees": 0, "a_prime_degrees": 45}),
    "id-with-comma": doc({"id": 'a,"b"', "kind": "classical", "parameters": COIN}),
}

#: The texts that CSV quotes a field for, and NUL, which it does not.
FIELD_TEXTS = {"cr": "\r", "crlf": "\r\n", "lf": "\n", "comma": ",", "quote": '"', "nul": "\x00"}
#: The PR box with its nonzero cells at 0.5 + 2e-10, and with 5e-10 moved
#: out of a zero cell: each valid within CONSTRAINT_TOL, with target rates
#: past 1.
TOLERANCE_BOXES = {
    "pr-box-raised": of_kind("nsbox", {"box": {
        key: value + 2e-10 if value else 0.0 for key, value in PR_BOX.items()}}),
    "pr-box-moved": of_kind("nsbox", {"box": {
        **PR_BOX, "P(0,1|0,0)": -5e-10, "P(0,0|0,0)": 0.5 + 5e-10}}),
}
#: Documents run in every format: an id or a chsh annotation that holds
#: each of FIELD_TEXTS, and the boxes at the tolerance.
FORMAT_DOCUMENTS = {
    **{f"id-{name}": doc({"id": f"{name}{text}id", "kind": "classical", "parameters": COIN})
       for name, text in FIELD_TEXTS.items()},
    **{f"annotation-{name}": chsh(annotation=f"note{text}end")
       for name, text in FIELD_TEXTS.items()},
    **TOLERANCE_BOXES,
}

#: Documents run once, as CSV with seeded Monte Carlo. With the built-ins'
#: `mc` cases they pin the substream each kind draws from: a chsh or box
#: pair from streams 0-3, a chsh option's rho_ci from 4 plus the option's
#: position in `remote_options`, and a counterfactual or classical row from
#: stream 0. The PR box draws only its winning cells, so its rows are exact;
#: every other estimate carries sampling noise.
MC_DOCUMENTS = {
    "correlator-box": doc({"id": "correlator-box", "kind": "nsbox",
                           "parameters": {"correlators": [0.3, -0.2, 0.7, -0.5]}}),
    "counterfactual": doc({"id": "counterfactual", "kind": "counterfactual", "parameters": {
        "theta_degrees": 30, "a_degrees": 0, "a_prime_degrees": 90}}),
    # b' listed first: its rho_ci estimate draws from stream 4, the first
    # option's, and the remote-free option second draws nothing.
    "chsh-options": doc({"id": "chsh-options", "kind": "chsh", "parameters": {
        "a_degrees": 0, "a_prime_degrees": 90, "b_degrees": 45, "b_prime_degrees": 135,
        "remote_options": ["b_prime", "none"]}}),
    # A cell 5e-10 below 0 is sampled at 0, its table rescaled.
    **TOLERANCE_BOXES,
}

#: Documents with one fault or more, each named by the field it breaks.
MALFORMED_DOCUMENTS = {
    # File and top level.
    "empty-file": "",
    "not-json": "{not json",
    "not-utf-8": b"\xff\xfe{}",
    "nested-too-deeply": "[" * 100_000,
    "top-level-list": "[]",
    "unknown-top-level-key": doc({"id": "x", "kind": "classical", "parameters": COIN,
                                  "plotting": True}),
    "id-empty": doc({"id": "", "kind": "classical", "parameters": COIN}),
    "id-number": doc({"id": 5, "kind": "classical", "parameters": COIN}),
    "id-missing": doc({"kind": "classical", "parameters": COIN}),
    "kind-missing": doc({"id": "x", "parameters": COIN}),
    "kind-number": doc({"id": "x", "kind": 5, "parameters": {}}),
    "kind-unknown": doc({"id": "x", "kind": "bogus", "parameters": {}}),
    "parameters-missing": doc({"id": "x", "kind": "chsh"}),
    "parameters-list": doc({"id": "x", "kind": "chsh", "parameters": []}),
    "parameters-null": doc({"id": "x", "kind": "chsh", "parameters": None}),
    "parameters-list-bad-kind": doc({"id": "x", "kind": "bogus", "parameters": []}),
    "parameters-list-sweep-mc": doc({"id": "x", "kind": "sweep", "parameters": [],
                                     "mc": {"n_samples": 1000, "seed": 1}}),
    "parameters-string-classical": doc({"id": "x", "kind": "classical",
                                        "parameters": "coin"}),
    "id-notes-extra-key": doc({"id": "", "kind": "chsh", "parameters": [],
                               "notes": [1], "extra": 2}),
    "id-and-mc": doc({"id": 7, "kind": "classical", "parameters": COIN, "mc": 3}),
    "notes-string": doc({"id": "x", "kind": "classical", "parameters": COIN,
                         "notes": "one"}),
    "mc-number": doc({"id": "x", "kind": "classical", "parameters": COIN, "mc": 3}),
    "mc-unknown-key": doc({"id": "x", "kind": "classical", "parameters": COIN,
                           "mc": {"n_samples": 100, "seed": 3, "burn_in": 9}}),
    "mc-n-zero": doc({"id": "x", "kind": "classical", "parameters": COIN,
                      "mc": {"n_samples": 0, "seed": 3}}),
    "mc-seed-true": doc({"id": "x", "kind": "classical", "parameters": COIN,
                         "mc": {"seed": True}}),
    # Valid to validate; one sample has a constant outcome, so run fails.
    "mc-degenerate": doc({"id": "x", "kind": "classical", "parameters": COIN,
                          "mc": {"n_samples": 1, "seed": 3}}),
    "sweep-mc": doc({"id": "x", "kind": "sweep", "parameters": SWEEP,
                     "mc": {"n_samples": 1000, "seed": 1}}),
    # chsh.
    "chsh-empty": of_kind("chsh", {}),
    "chsh-not-orthogonal": chsh(a_prime_degrees=60),
    "chsh-angle-string": chsh(b_degrees="x"),
    "chsh-angle-bool": chsh(b_degrees=True),
    "chsh-angle-huge": '{"id": "c", "kind": "chsh", "parameters": {"a_degrees": 0, '
                       '"a_prime_degrees": 90, "b_degrees": 1' + "0" * 400
                       + ', "b_prime_degrees": 135}}',
    "chsh-remote-options-string": chsh(remote_options="b"),
    "chsh-remote-options-empty": chsh(remote_options=[]),
    "chsh-remote-options-unknown": chsh(remote_options=["b", "c"]),
    "chsh-remote-options-repeated": chsh(remote_options=["b", "b", "none"]),
    "chsh-annotation-number": chsh(annotation=5),
    "chsh-assume-ci-string": chsh(assume_ci="yes"),
    "chsh-extra-parameter": chsh(c_degrees=10),
    "chsh-extra-parameter-newline": chsh(**{"bad\nkey": 1}),
    # counterfactual.
    "counterfactual-empty": of_kind("counterfactual", {}),
    "counterfactual-extra": of_kind("counterfactual", {"theta_degrees": 45, "a_degrees": 0,
                                                       "a_prime_degrees": 90, "b": 1}),
    # nsbox.
    "nsbox-no-source": of_kind("nsbox", {}),
    "nsbox-two-sources": of_kind("nsbox", {"isotropic_p": 1, "correlators": [1, 1, 1, -1]}),
    "nsbox-isotropic-out-of-range": of_kind("nsbox", {"isotropic_p": 2}),
    "nsbox-isotropic-nan": '{"id": "k", "kind": "nsbox", "parameters": {"isotropic_p": NaN}}',
    "nsbox-correlators-string": of_kind("nsbox", {"correlators": "x"}),
    "nsbox-correlators-short": of_kind("nsbox", {"correlators": [1, 2]}),
    "nsbox-correlators-out-of-range": of_kind("nsbox", {"correlators": [2, 0, "x", -1]}),
    "nsbox-box-list": of_kind("nsbox", {"box": []}),
    "nsbox-box-missing-entry": of_kind("nsbox", {"box": {
        **{k: v for k, v in PR_BOX.items() if k != "P(0,0|0,0)"}, "P(2,0|0,0)": 0.5}}),
    "nsbox-box-signalling": of_kind("nsbox", {"box": {
        **PR_BOX, "P(0,0|0,0)": 1.0, "P(1,1|0,0)": 0.0}}),
    "nsbox-box-key-newline": of_kind("nsbox", {"box": {
        **{k: v for k, v in PR_BOX.items() if k != "P(0,0|0,0)"}, "P(0,0|0,0)\n": 0.5}}),
    "nsbox-box-entry-string": of_kind("nsbox", {"box": {**PR_BOX, "P(0,0|0,0)": "half"}}),
    # classical.
    "classical-variant-unknown": of_kind("classical", {"variant": "dice"}),
    "classical-variant-missing": of_kind("classical", {}),
    "classical-coin-extra": of_kind("classical", {"variant": "coin", "red_given_cube": 0.5}),
    "classical-deterministic": of_kind("classical", {"variant": "shapes", "red_given_cube": 1,
                                                     "blue_given_sphere": 0}),
    "classical-out-of-range": of_kind("classical", {"variant": "shapes", "red_given_cube": 2}),
    # sweep.
    "sweep-parameter-unknown": of_kind("sweep", {**SWEEP, "parameter": "x"}),
    "sweep-parameter-missing": of_kind("sweep", {"start": 0, "stop": 1, "step": 0.5}),
    "sweep-step-zero": of_kind("sweep", {**SWEEP, "step": 0}),
    "sweep-stop-below-start": of_kind("sweep", {**SWEEP, "start": 1.0, "stop": 0.0}),
    "sweep-too-many-points": of_kind("sweep", {**SWEEP, "step": 1e-12}),
    # The Decimal quotient is under 10^6; the grid as built has 10^6 + 1 points.
    "sweep-grid-cap-edge": of_kind("sweep", {"parameter": "theta_degrees", "start": 0,
                                             "stop": 999999.9999999999, "step": 1}),
    "sweep-isotropic-out-of-range": of_kind("sweep", {**SWEEP, "stop": 2}),
    "sweep-directions-on-isotropic": of_kind("sweep", {**SWEEP, "a_degrees": 0}),
    "sweep-extra": of_kind("sweep", {**SWEEP, "points": 3}),
}


def _cases() -> list[Case]:
    cases = []
    for source in BUILTINS + FILES:
        for fmt in FORMATS:
            argv = ("run", source, "--format", fmt)
            cases.append(Case(f"run/{source}/{fmt}", argv))
            cases.append(Case(f"run/{source}/{fmt}/mc", argv + MC))
            cases.append(Case(f"run/{source}/{fmt}/out", argv + ("--out", "out")))
        cases.append(Case(f"validate/{source}", ("validate", source)))
    for source in ("paper-standard", "paper-pr-box"):  # the default n and seed
        cases.append(Case(f"run/{source}/json/mc-default", ("run", source, "--mc", "--format", "json")))
    for fmt in FORMATS:
        cases.append(Case(f"list/{fmt}", ("list", "--format", fmt)))
        cases.append(Case(f"list/{fmt}/out", ("list", "--format", fmt, "--out", "out")))
    cases.append(Case("help/top", ("--help",)))
    for command in COMMANDS:
        cases.append(Case(f"help/{command}", (command, "--help")))
    for parameter in ("isotropic_p", "theta_degrees"):
        for points in SWEEP_POINTS:
            for fmt in FORMATS:
                argv = sweep_argv(parameter, points) + ("--format", fmt)
                cases.append(Case(f"sweep/{parameter}/{points}/{fmt}", argv))
        cases.append(Case(f"sweep/{parameter}/4097/csv/out",
                          sweep_argv(parameter, 4097) + ("--format", "csv", "--out", "out")))
    for name, text in VALID_DOCUMENTS.items():
        for fmt in ("table", "json"):
            cases.append(Case(f"document/{name}/{fmt}", ("run", "doc.json", "--format", fmt),
                              (("doc.json", text),)))
        cases.append(Case(f"document/{name}/validate", ("validate", "doc.json"),
                          (("doc.json", text),)))
    for name, text in FORMAT_DOCUMENTS.items():
        for fmt in FORMATS:
            cases.append(Case(f"document/{name}/{fmt}", ("run", "doc.json", "--format", fmt),
                              (("doc.json", text),)))
        cases.append(Case(f"document/{name}/validate", ("validate", "doc.json"),
                          (("doc.json", text),)))
    for name, text in MC_DOCUMENTS.items():
        cases.append(Case(f"document/{name}/csv/mc", ("run", "doc.json", *MC, "--format", "csv"),
                          (("doc.json", text),)))
    for name, text in MALFORMED_DOCUMENTS.items():
        for command in ("validate", "run"):
            cases.append(Case(f"malformed/{name}/{command}", (command, "doc.json"),
                              (("doc.json", text),)))
    cases.extend(FLAG_ERRORS)
    cases.extend(CLOSED_STDOUT)
    return cases


BAD_GRID = ("sweep", "--parameter", "isotropic_p", "--start", "0", "--stop", "1")
THETA = ("sweep", "--parameter", "theta_degrees", "--start", "0", "--stop", "90", "--step", "45")
BAD_DOC = (("doc.json", MALFORMED_DOCUMENTS["chsh-empty"]),)

#: Flag faults. The `usage/` cases are argparse's own messages.
FLAG_ERRORS = [
    Case("usage/no-command", ()),
    Case("usage/unknown-command", ("frobnicate",)),
    Case("usage/run-without-scenario", ("run",)),
    Case("usage/format-unknown", ("run", "paper-coin", "--format", "yaml")),
    Case("usage/samples-not-integer", ("run", "paper-coin", "--samples", "x")),
    Case("usage/seed-not-integer", ("run", "paper-coin", "--seed", "1.5")),
    Case("usage/unknown-flag", ("run", "paper-coin", "--verbose")),
    Case("usage/sweep-without-step", BAD_GRID),
    Case("usage/sweep-parameter-unknown", ("sweep", "--parameter", "x", "--start", "0",
                                           "--stop", "1", "--step", "1")),
    Case("usage/sweep-start-not-number", ("sweep", "--parameter", "isotropic_p",
                                          "--start", "a", "--stop", "1", "--step", "1")),
    Case("usage/list-format-unknown", ("list", "--format", "yaml")),
    Case("usage/validate-without-scenario", ("validate",)),
    Case("usage/validate-mc", ("validate", "paper-coin", "--mc")),
    Case("flags/samples-zero", ("run", "paper-coin", "--samples", "0")),
    Case("flags/samples-one", ("run", "paper-coin", "--samples", "1")),
    Case("flags/samples-one-out", ("run", "paper-coin", "--samples", "1", "--out", "out")),
    Case("flags/samples-too-many", ("run", "paper-coin", "--samples", "10000000000000000000")),
    Case("flags/seed-negative", ("run", "paper-coin", "--seed", "-1")),
    Case("flags/samples-on-file-mc", ("run", "doc.json", "--samples", "2000", "--format", "csv"),
         (("doc.json", VALID_DOCUMENTS["mc-block"]),)),
    Case("flags/sweep-file-mc", ("run", "scenarios/sweep-isotropic.json", "--samples", "0")),
    Case("flags/bad-file-and-samples", ("run", "doc.json", "--samples", "0"), BAD_DOC),
    Case("flags/unknown-scenario", ("run", "paper-nonexistent")),
    Case("flags/validate-unknown-scenario", ("validate", "paper-nonexistent")),
    Case("flags/scenario-directory", ("run", "scenarios")),
    Case("flags/out-directory", ("run", "paper-coin", "--out", "scenarios")),
    Case("flags/sweep-out-directory", THETA + ("--out", "scenarios")),
    Case("flags/list-out-directory", ("list", "--out", "scenarios")),
    Case("flags/sweep-stop-out-of-range", BAD_GRID[:-1] + ("2", "--step", "0.1")),
    Case("flags/sweep-too-many-points", BAD_GRID + ("--step", "1e-12")),
    Case("flags/sweep-grid-cap-edge", ("sweep", "--parameter", "theta_degrees", "--start", "0",
                                       "--stop", "999999.9999999999", "--step", "1",
                                       "--format", "csv")),
    Case("flags/sweep-subnormal-step", BAD_GRID + ("--step", "1e-320")),
    Case("flags/sweep-step-zero", BAD_GRID + ("--step", "0")),
    Case("flags/sweep-step-negative", BAD_GRID + ("--step=-1",)),
    Case("flags/sweep-step-nan", BAD_GRID + ("--step", "nan")),
    Case("flags/sweep-stop-below-start", ("sweep", "--parameter", "theta_degrees",
                                          "--start", "0", "--stop", "-1", "--step", "1")),
    Case("flags/sweep-span-overflows", ("sweep", "--parameter", "theta_degrees",
                                        "--start=-1e308", "--stop", "1e308", "--step", "1e303")),
    Case("flags/sweep-last-point-overflows", (
        "sweep", "--parameter", "theta_degrees", "--start", "1.7e308",
        "--stop", "1.7976931348623157e308", "--step", "9.769313487208508e306")),
    Case("flags/sweep-directions-on-isotropic", BAD_GRID + ("--step", "0.5", "--a-degrees", "0")),
    Case("flags/sweep-directions-not-orthogonal", THETA + ("--a-degrees", "0",
                                                           "--a-prime-degrees", "45")),
    Case("flags/sweep-directions-infinite", THETA + ("--a-degrees", "inf")),
]

#: Standard output closed by its reader part way.
CLOSED_STDOUT = [
    Case("closed-stdout/run", ("run", "paper-pr-box", "--samples", "1", "--format", "csv"),
         closed_stdout=True),
    Case("closed-stdout/sweep", ("sweep", "--parameter", "theta_degrees", "--start", "0",
                                 "--stop", "9999", "--step", "1", "--format", "csv"),
         closed_stdout=True),
    Case("closed-stdout/list", ("list",), closed_stdout=True),
    Case("closed-stdout/validate", ("validate", "paper-coin"), closed_stdout=True),
    Case("closed-stdout/help", ("run", "--help"), closed_stdout=True),
    Case("closed-stdout/with-out", ("run", "paper-coin", "--out", "out"), closed_stdout=True),
    Case("closed-stdout/bad-document", ("validate", "doc.json"), BAD_DOC, closed_stdout=True),
]

CASES = _cases()

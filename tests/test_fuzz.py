"""Every input to every command exits 0-3, with no traceback and no warning.

A Hypothesis strategy edits one to three places of a small valid input
per command. A field becomes another valid value, a value of the wrong
type or an edge number, or is dropped; an entry of a list of records (a
kernel's coefficients, a family's specs, a study's degrees, a solution's
coefficients and check records) is dropped or duplicated. Each edited
input runs through ``cli.main`` at degrees of at most 16. No input
raises a Python warning. A command that exits 0 or 1 writes nothing to
stderr, except ``bergex solve``'s one ``warning:`` line for a degree
below the kernel's.
"""

import contextlib
import enum
import io
import json
import math
import tempfile
import warnings
from functools import cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergex import cli, kernelspec


class Op(enum.Enum):
    DROP = "drop"
    DUPLICATE = "duplicate"


EDGE_NUMBERS = [0.0, -0.0, -1.0, 5e-324, 1e-308, 1e308, 1.5e308, math.inf,
                -math.inf, math.nan, -1, 0, 4097, 2 ** 63, 10 ** 400]
WRONG_TYPES = [None, True, False, "1", "", [], {}, [1.0], {"n": 1}]
WRONG = st.sampled_from(EDGE_NUMBERS + WRONG_TYPES)


def field(valid):
    """A field's new state: a valid value, a wrong or edge one, or none."""
    return st.one_of(valid, WRONG, st.just(Op.DROP))


NUMBER = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(EDGE_NUMBERS))
SPEC = st.one_of(
    st.fixed_dictionaries({
        "type": st.just("coeffs"),
        "values": st.lists(st.one_of(st.lists(NUMBER, min_size=2,
                                              max_size=2), WRONG),
                           max_size=18)}),
    st.fixed_dictionaries({
        "type": st.just("power_decay"),
        "alpha": st.one_of(st.floats(-3.0, 4.0), WRONG),
        "count": st.one_of(st.integers(1, 18), WRONG)}),
    st.fixed_dictionaries({"type": st.sampled_from(["truncate", ""])}),
    WRONG)
KERNEL = field(SPEC)
P = field(st.sampled_from([2, 4, 6]))
DEGREES = field(st.lists(st.integers(0, 16), min_size=2, max_size=4))
# keys that no command reads any more, whatever their value
IGNORED = {(key,): field(st.integers(-3, 3))
           for key in ("max_iterations", "oracle_degree", "checks",
                       "tolerance")}
SEED = {("seed",): field(st.integers(0, 2 ** 64))}
VERSION = {("schema_version",): field(st.just(1))}

ONE_PLUS_Z = {"type": "coeffs", "values": [[1.0, 0.0], [1.0, 0.0]]}
SOLVE = {"schema_version": 1, "p": 4, "degree": 8,
         "kernel": {"type": "coeffs", "values": [[1.0, 0.0], [0.5, 0.25]]}}
PROBLEM_FIELDS = {("p",): P, ("degree",): field(st.integers(1, 16)),
                  ("kernel",): KERNEL}
STUDY_FIELDS = {("p",): P, **VERSION, **IGNORED}


def under(prefix, fields):
    return {prefix + path: value for path, value in fields.items()}


RECORD = ("body", "checks", 0)
# name: (argv, base input, fields, lists of records)
COMMANDS = {
    "solve": (["solve"], SOLVE,
              {**PROBLEM_FIELDS, **VERSION, **IGNORED, **SEED},
              [("kernel", "values")]),
    # the base input is the solution file of SOLVE
    "verify": (["verify"], None, {
        **under(("body", "problem"), PROBLEM_FIELDS),
        ("body", "solution", "coefficients"): field(st.lists(
            st.lists(NUMBER, min_size=2, max_size=2), max_size=18)),
        ("body", "solution", "phi_norm"): field(NUMBER),
        ("body", "solution", "residual_max"): field(NUMBER),
        ("body", "checks"): field(st.just([])),
        RECORD + ("check_name",): field(st.sampled_from(
            ["norm_equality", "fourier_formula", "ryabykh_bound"])),
        RECORD + ("residual",): field(NUMBER),
        RECORD + ("context",): field(st.just({})),
        ("body", "checks", 1, "context", "m"): field(st.integers(0, 9)),
        ("body", "checks", 10, "context", "m_max"): field(
            st.integers(0, 16)),
        ("body",): WRONG,
    }, [("body", "solution", "coefficients"), ("body", "checks"),
        ("body", "problem", "kernel", "values")]),
    # the two growth bases, a capped standard family and an explicit family
    # truncated at degree 8, solve S_n k on purpose
    "growth": (["study", "growth"],
               {"schema_version": 1, "p": 4, "max_study_degree": 16}, {
                   **STUDY_FIELDS, **SEED,
                   ("q1_list",): field(st.lists(st.sampled_from(
                       [4.0 / 3.0, 1.5, 2.0, 4.0]), min_size=1, max_size=3)),
                   ("family",): field(st.one_of(st.just("standard"),
                                                st.lists(SPEC, max_size=3))),
                   ("degree",): field(st.integers(0, 16)),
                   # dropped, the cap is 128
                   ("max_study_degree",): st.one_of(st.integers(0, 16),
                                                    WRONG),
               }, [("q1_list",), ("family",)]),
    "growth-explicit": (
        ["study", "growth"],
        {"schema_version": 1, "p": 4, "degree": 8,
         "family": [{"type": "power_decay", "alpha": 2.0, "count": 40}]},
        {**STUDY_FIELDS, ("degree",): field(st.integers(0, 16)),
         ("family",): field(st.lists(SPEC, max_size=3))},
        [("family",), ("family", 0, "values")]),
    "convergence": (["study", "convergence"],
                    {"schema_version": 1, "p": 4, "kernel": ONE_PLUS_Z,
                     "degrees": [8, 16]},
                    {**STUDY_FIELDS, **SEED, ("kernel",): KERNEL,
                     ("degrees",): DEGREES},
                    [("degrees",), ("kernel", "values")]),
    "hinfty": (["study", "hinfty"],
               {"schema_version": 1, "p": 4, "alpha": 2.0,
                "degrees": [8, 16]},
               {**STUDY_FIELDS, **SEED, ("degrees",): DEGREES,
                ("alpha",): field(st.one_of(st.floats(0.1, 4.0), NUMBER))},
               [("degrees",)]),
    # a kernel of degree 7, compared on P_3 by design
    "oracle-compare": (["oracle-compare"],
                       {"schema_version": 1, "p": 4,
                        "kernel": {"type": "power_decay", "alpha": 2.0,
                                   "count": 8}},
                       {**STUDY_FIELDS, **SEED, ("kernel",): KERNEL},
                       [("kernel", "values")]),
}


def edits(name):
    """One to three (path, new state) edits of the command's base input."""
    _, _, fields, records = COMMANDS[name]
    set_field = st.sampled_from(sorted(fields, key=str)).flatmap(
        lambda path: fields[path].map(lambda state: (path, state)))
    edit_record = st.builds(lambda path, i, op: (path + (i,), op),
                            st.sampled_from(records), st.integers(0, 3),
                            st.sampled_from(Op))
    return st.lists(st.one_of(set_field, edit_record), min_size=1,
                    max_size=3)


def apply(doc, path, state):
    """Set, drop or duplicate the entry at ``path``; an edit whose parent
    an earlier edit removed or retyped does nothing."""
    *head, last = path
    try:
        for key in head:
            doc = doc[key]
        if isinstance(doc, list):
            if not doc or not isinstance(last, int):
                return
            last %= len(doc)
        elif not isinstance(doc, dict) or state is Op.DUPLICATE:
            return
        if state is Op.DROP:
            doc.pop(last)
        elif state is Op.DUPLICATE:
            doc.insert(last, doc[last])
        else:
            doc[last] = state
    except (KeyError, IndexError, TypeError):
        return


@cache
def solution_text():
    """The solution file of SOLVE, as ``bergex solve`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "s.json"
        config.write_text(json.dumps(SOLVE), encoding="utf-8")
        cli.main(["solve", "--config", str(config), "--out", str(out)])
        return out.read_text(encoding="utf-8")


def base_input(name):
    base = COMMANDS[name][1]
    return json.loads(solution_text() if base is None else json.dumps(base))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(
    lambda name: st.tuples(st.just(name), edits(name))))
# a recorded ||phi|| of 1e308 divides the kernel by 2^1024, and a 1e308
# coefficient overflows F's norms
@example(("verify", [(("body", "solution", "phi_norm"), 1e308)]))
@example(("verify", [(("body", "solution", "coefficients", 0),
                      [1e308, 0.0])]))
# the base inputs of growth and oracle-compare solve S_n k below the
# kernel's degree
@example(("growth", []))
@example(("growth-explicit", []))
@example(("oracle-compare", []))
# a degree below the kernel's
@example(("solve", [(("degree",), 1),
                    (("kernel", "values", 0), Op.DUPLICATE)]))
def test_every_input_exits_0_to_3(case):
    name, changes = case
    doc = base_input(name)
    for path, state in changes:
        apply(doc, path, state)
    argv = COMMANDS[name][0]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ([str(path)] if name == "verify"
                       else ["--config", str(path)])
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 3:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    elif code in (0, 1):
        expected = []
        if name == "solve":
            degree = doc["degree"]
            kernel = kernelspec.realize(kernelspec.from_dict(doc["kernel"]))
            if degree < kernel.degree:
                expected = [f"warning: working degree {degree} below kernel "
                            f"degree {kernel.degree}: the functional is "
                            f"truncated to P_{degree}"]
        assert lines == expected
    assert [(w.category, str(w.message)) for w in caught] == []

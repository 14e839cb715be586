"""Hypothesis drives ``cli.main`` with generated recipes, slopes, config
bodies and flags: every run ends in a documented exit code, never in an
escaping exception or a traceback."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from abelianwords.cli import RECIPE_PRESETS, SLOPE_PRESETS, main

LENGTH = st.integers(-2, 1 << 12)
SMALL = st.integers(-2, 9)
# True but now and then False
USUALLY = st.sampled_from([True] * 15 + [False])

# a value of the wrong JSON type for any field: every field is fed these
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.floats(allow_nan=False, width=32), st.sampled_from([1e400, 2.9, 1.0]),
    st.text("0123a. -", max_size=4), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["0", "1", "x"]), st.integers(0, 3),
                    max_size=2))


def field(good):
    """Mostly a well-typed value, one time in eight junk.  (``one_of``
    would flatten JUNK's branches and pick junk most of the time.)"""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda ok: good if ok else JUNK)


DIGITS = st.text("0123", max_size=6)
TERMS = st.lists(field(st.integers(1, 20)), max_size=3)
SLOPE = st.one_of(
    st.sampled_from(list(SLOPE_PRESETS.values())),
    st.fixed_dictionaries({"preperiod": field(TERMS), "period": field(TERMS)}))


@st.composite
def morphisms(draw):
    p = draw(st.integers(1, 3))
    letter = st.sampled_from("0123"[:p])
    images = {}
    for a in range(p):
        # starting the seed's image with the seed keeps many prolongable
        head = str(a) if draw(st.booleans()) else ""
        images[str(a)] = draw(field(st.text(letter, max_size=3).map(
            lambda t, head=head: head + t)))
    # now and then a second key for a letter, or a letter far past p
    if not draw(USUALLY):
        images[draw(st.sampled_from(["00", "01", "99999999999999"]))] = "0"
    return images


def recipe_fields(kind):
    """The fields of one recipe kind, each drawn well-typed or junk."""
    return {
        "fixed-point": {"morphism": field(morphisms()),
                        "seed": field(st.sampled_from(["0", "1", 0, 1])),
                        "post": field(morphisms())},
        "characteristic": {"slope": field(SLOPE)},
        "hubert": {"slope": field(SLOPE)},
        "periodic": {"pattern": field(DIGITS)},
        "explicit": {"symbols": field(DIGITS),
                     "alphabet_size": field(st.integers(1, 12))},
        "champernowne": {},
        "max-complexity": {},
    }[kind]


@st.composite
def recipe_dicts(draw, depth=2):
    kinds = ["fixed-point", "characteristic", "hubert", "periodic",
             "explicit", "champernowne", "max-complexity"]
    if depth:
        kinds.append("literal-prepend")
    kind = draw(st.sampled_from(kinds))
    if kind == "literal-prepend":
        fields = {"prefix": field(DIGITS),
                  "inner": field(recipe_dicts(depth - 1))}
    else:
        fields = recipe_fields(kind)
    d = {"kind": kind}
    for name, strategy in fields.items():
        if name != "post" or draw(st.booleans()):
            d[name] = draw(strategy)
    if fields and not draw(USUALLY):
        d.pop(draw(st.sampled_from(sorted(fields))), None)
    return d


RECIPE = st.one_of(st.sampled_from(list(RECIPE_PRESETS)),
                   field(recipe_dicts()))


class File(str):
    """Text that the test writes to a file and passes by its path."""


def spec(value, presets):
    """A preset name as is, anything else as inline JSON or as a file."""
    if isinstance(value, str) and value in presets:
        return st.just(value)
    text = json.dumps(value)
    inline = [text] if text.lstrip().startswith("{") else []
    return st.sampled_from(inline + [File(text)])


NMAX = st.integers(-1, 64)
PREFIX_LEN = {"prefix-len": LENGTH}
# per command: the flags it needs, then the optional ones
COMMANDS = {
    "generate": ({"len": LENGTH}, {}),
    "profile": ({"nmax": NMAX},
                {"jobs": st.integers(-1, 3), **PREFIX_LEN}),
    # the default --prefix-len of powers is 2^16, past the lengths fuzzed
    "powers brute": ({"k": SMALL, **PREFIX_LEN},
                     {"pos": st.integers(-2, 4100)}),
    "powers vdw": ({"k": SMALL, **PREFIX_LEN}, {"M": SMALL}),
    "powers sturmian": ({"k": SMALL}, {"pos": st.integers(-2, 4096)}),
    "verify thue-morse": ({}, {"nmax": NMAX}),
    "verify rauzy": ({}, {"nmax": NMAX, "variant": st.sampled_from(
        ["hubert", "morphism", "x"])}),
    "verify periodicity": ({"p": st.integers(-1, 512)}, {"nmax": NMAX}),
}
CONFIG = field(
    st.dictionaries(
        st.sampled_from(["len", "nmax", "prefix_len", "prefix-len", "k", "pos",
                         "M", "jobs", "p", "variant", "recipe", "slope",
                         "out", "unknown"]),
        st.one_of(st.integers(-2, 64), st.text("0123x", max_size=3), JUNK),
        max_size=3))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = command.split()
    needed, optional = COMMANDS[command]
    for name, strategy in {**needed, **optional}.items():
        # a needed flag is left out now and then, an optional one half the time
        if draw(USUALLY if name in needed else st.booleans()):
            argv += [f"--{name}", str(draw(strategy))]
    if command in ("verify periodicity", "powers brute", "powers vdw",
                   "generate", "profile") and draw(USUALLY):
        argv += ["--recipe", draw(spec(draw(RECIPE), RECIPE_PRESETS))]
    if command == "powers sturmian" and draw(USUALLY):
        value = draw(st.one_of(st.sampled_from(list(SLOPE_PRESETS)),
                               field(SLOPE)))
        argv += ["--slope", draw(spec(value, SLOPE_PRESETS))]
    if not draw(USUALLY):
        argv = ["--config", File(json.dumps(draw(CONFIG)))] + argv
    return argv


def run_main(tmp_path, argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in ``tmp_path``
    (a config may name an --out file), each File in argv written there and
    passed by its path."""
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, File):
            argv[i] = str(tmp_path / f"{i}.json")
            (tmp_path / f"{i}.json").write_text(arg)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's own usage error
        code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def generate(recipe):
    return ["generate", "--len", "4", "--recipe", json.dumps(recipe)]


TM = {"kind": "fixed-point", "morphism": {"0": "01", "1": "10"}}
# Where the CLI reaches the wire parsers: each of these ended in a
# traceback or silently became another word.  The parsers' own table of
# wrong wire types is in test_words.py.
MALFORMED = [
    generate(dict(TM, seed=1.7)),
    ["generate", "--len", "4", "--recipe", File("[1]")],
    ["profile", "--nmax", "2", "--prefix-len", "10", "--recipe",
     json.dumps({"kind": "explicit", "symbols": "0110011001",
                 "alphabet_size": 2.5})],
    ["powers", "sturmian", "--k", "2", "--slope",
     '{"preperiod": [2.9], "period": [1]}'],
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_is_one_usage_error(tmp_path, argv):
    code, out, err = run_main(tmp_path, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def seeded(test):
    for argv in MALFORMED:
        test = example(argv=argv)(test)
    return test


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(argv=argvs())
@seeded
def test_cli_ends_in_a_documented_exit_code(tmp_path, argv):
    code, _, err = run_main(tmp_path, argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err

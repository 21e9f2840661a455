"""Any config document and flag set ends in a result or in one error line.

Hypothesis draws JSON config documents (nulls, huge integers, ``1e400``,
wrong types, bad dims, small states) and command lines (small trial and
step counts, some of them negative, output paths under a temporary
directory, one of them a directory, now and then an unknown flag; each flag
as ``--flag=value`` or as ``--flag value``). Every run must return an exit code
in {0, 2, 3, 4, 5}, raise nothing, and on failure write exactly one
``error: <code>: <message>`` line to stderr, after at most the documented
warning lines. A flag and the document field it replaces, given the same
text, must end the same way.
"""

import contextlib
import io
import json
import math
import os
import re
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modval.cli import main
from modval.errors import ModvalError


class Raw(NamedTuple):
    """A JSON token written verbatim, such as ``1e400`` (json.dumps cannot)."""

    text: str


def dump(doc) -> str:
    """JSON text of ``doc`` with every ``Raw`` token spliced in."""
    raws = []

    def encode(value):
        if isinstance(value, Raw):
            raws.append(value.text)
            return f"__raw{len(raws) - 1}__"
        if isinstance(value, dict):
            return {key: encode(item) for key, item in value.items()}
        if isinstance(value, list):
            return [encode(item) for item in value]
        return value

    text = json.dumps(encode(doc))
    for k, raw in enumerate(raws):
        text = text.replace(f'"__raw{k}__"', raw)
    return text


HUGE = 10**400
EXIT_BY_CODE = {"config_error": 2, "orthogonal_postselection": 3, "negative_discriminant": 4,
                "all_trials_rejected": 5}
ERROR_LINE = re.compile(r"error: ([a-z_]+): \S.*")
WARNING_LINE = re.compile(r"warning: (\w+ amplitudes renormalized \(norm was .*\)"
                          r"|sweep-theta runs the exact pipeline; noise config ignored)")
# relative to the run directory: a file, a directory and a path under a missing one
OUT_PATHS = ("-", "out.csv", "outdir", "missing/out.csv")


def mostly(valid, bad):
    """``valid`` seven times in eight, so most runs get past the config checks."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else valid)


junk = st.sampled_from([None, "x", "", [], {}, [1, 2], True])
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
    st.sampled_from([HUGE, -HUGE, 2**63 - 1, 2**63, Raw("1e400"), Raw("-1e400")]),
)
anything = st.one_of(numbers, junk)


@st.composite
def amplitude_specs(draw, bad=False):
    """Explicit amplitudes on small dims; ``bad`` ones may break any part of the spec."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=2))
    size = math.prod(dims)
    component = st.floats(-1, 1)
    if bad:
        dims = draw(st.one_of(st.just(dims), st.lists(st.integers(0, 3), max_size=3),
                              st.sampled_from([[2.9, 2], [2.0, 2], "22", 5, None, ["a", 2],
                                               [HUGE, 2], [64, 65]])))
        size = draw(st.one_of(st.just(size), st.integers(0, 9)))
        component = mostly(component, st.sampled_from([math.nan, math.inf, HUGE, "1", None]))
    pair = st.lists(component, min_size=2, max_size=2)
    amps = st.lists(pair, min_size=size, max_size=size)
    if bad:
        amps = mostly(st.lists(mostly(pair, anything), min_size=size, max_size=size), anything)
    spec = {"amps": draw(amps)}
    if dims != [2, 2] or draw(st.booleans()):  # [2, 2] is the default
        spec["dims"] = dims
    return spec


states = mostly(
    st.one_of(st.fixed_dictionaries({"preset": st.sampled_from(["fig3", "fig4a", "fig4b",
                                                                "fig4c", "fig4d"])}),
              amplitude_specs()),
    st.one_of(st.fixed_dictionaries({"preset": st.sampled_from(["nope", None])}),
              amplitude_specs(bad=True), junk),
)
postselections = mostly(
    st.one_of(st.fixed_dictionaries({"preset": st.sampled_from(["uniform_plus",
                                                                "alt_postselection"])}),
              amplitude_specs()),
    st.one_of(st.fixed_dictionaries({"preset": st.just("nope")}), amplitude_specs(bad=True),
              junk),
)
noises = mostly(
    st.one_of(st.none(), st.fixed_dictionaries(
        {"pairs_per_setting": st.sampled_from([1, 50, 1000, 10**5, 2**63 - 1])},
        optional={"trials": st.integers(1, 3), "seed": st.sampled_from([0, 7, 2**64, 10**30]),
                  "clamp": st.booleans()})),
    st.one_of(junk, st.fixed_dictionaries({}, optional={
        "pairs_per_setting": anything,
        "trials": st.one_of(st.integers(-1, 3), junk, st.just(Raw("1e400"))),
        "seed": anything,
        "clamp": st.sampled_from([True, False, None]),
    })),
)
documents = st.fixed_dictionaries(
    {"schema_version": mostly(st.just(1), st.sampled_from([2, None, "1"])),
     "state": states},
    optional={
        "postselection": postselections,
        "theta": mostly(st.floats(-4, 4), anything),
        "epsilon": mostly(st.floats(0.01, 1), anything),
        "g": mostly(st.sampled_from([math.pi, 1.0, 2.5]), anything),
        "method": mostly(st.sampled_from(["exact_inversion", "first_order", "definitional"]),
                         st.one_of(junk, st.just("magic"))),
        "noise": noises,
        "output_path": mostly(st.sampled_from(OUT_PATHS), st.one_of(junk, st.just(5))),
        "format": mostly(st.sampled_from(["csv", "json"]), st.sampled_from(["xml", None, 5])),
    },
)
flag_values = {
    "--method": st.sampled_from(["exact_inversion", "first_order", "definitional"]),
    "--epsilon": mostly(st.floats(0.01, 1), st.floats()).map(repr),
    "--pairs": mostly(st.sampled_from([50, 1000, 10**5, 2**63 - 1]),
                      st.sampled_from([0, -5, 10**23])).map(str),
    "--trials": mostly(st.integers(1, 3), st.integers(-1, 0)).map(str),
    "--seed": mostly(st.sampled_from([0, 7, 2**70]), st.just(-1)).map(str),
    "--out": st.sampled_from(OUT_PATHS),
    "--format": st.sampled_from(["csv", "json"]),
}
sweep_values = {
    "--theta-min": st.floats(-4, 4).map(repr),
    "--theta-max": mostly(st.floats(-4, 4), st.floats()).map(repr),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["reconstruct", "sweep-theta", "tomography", "compare"]))
    values = dict(flag_values, **sweep_values) if command == "sweep-theta" else flag_values
    chosen = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=5))
    pairs = [(flag, draw(values[flag])) for flag in chosen]
    if command == "sweep-theta":  # the default of 41 steps is slower than the fuzz needs
        pairs.append(("--steps", str(draw(mostly(st.integers(2, 5), st.integers(-1, 1))))))
    # a value starting with "-" (a negative number, or "-" for stdout) is read in both forms
    groups = [[f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
              for flag, value in pairs]
    if draw(st.booleans()):
        groups.append(["--no-timestamp"])
    if draw(st.integers(0, 15)) == 0:  # a usage error
        groups.insert(draw(st.integers(0, len(groups))), ["--no-such-flag"])
    return command, [token for group in groups for token in group]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "outdir").mkdir()
    return path


def run(run_dir, doc, command, flags) -> tuple[int, str]:
    """(exit code, stderr) of one in-process ``main`` call; exceptions propagate."""
    (run_dir / "run.json").write_text(dump(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)  # relative output paths, "5" from "output_path": 5 too, land here
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", "run.json", *flags])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def fig4a(**fields) -> dict:
    return {"schema_version": 1, "state": {"preset": "fig4a"}, **fields}


# (config, subcommand, flags) that ended in a traceback (exit 1) and now exit 2
FORMER_TRACEBACKS = [
    # a null in a field with a non-null default: TypeError
    (fig4a(epsilon=None), "reconstruct", []),
    (fig4a(g=None), "reconstruct", []),
    (fig4a(output_path=None), "reconstruct", []),
    # numbers out of range: OverflowError, or ValueError from Python's int-string limit
    (fig4a(noise={"pairs_per_setting": Raw("1e400")}), "reconstruct", []),
    (fig4a(noise={"pairs_per_setting": 100, "seed": Raw("1e400")}), "compare", []),
    (fig4a(theta=HUGE), "reconstruct", []),
    (fig4a(epsilon=HUGE), "reconstruct", []),
    (fig4a(g=HUGE), "tomography", []),
    (fig4a(), "reconstruct", ["--pairs=100000000000000000000000"]),
    (fig4a(noise={"pairs_per_setting": 10**23}), "compare", []),
    (fig4a(state={"amps": [[HUGE, 0]] * 4}), "reconstruct", []),
    (fig4a(theta=Raw("1" + "0" * 5000)), "reconstruct", []),
    # an unwritable output: IsADirectoryError, FileNotFoundError
    (fig4a(), "reconstruct", ["--out=outdir"]),
    (fig4a(output_path="missing/out.csv"), "tomography", []),
    # a trial count past the cap: ValueError from np.arange
    (fig4a(noise={"pairs_per_setting": 1000, "trials": 10**400}), "reconstruct", []),
    (fig4a(), "compare", ["--pairs=1000", "--trials=100000000000000000000000"]),
]

# (config, subcommand, flags) whose wrongly typed value was coerced (exit 0) and now exit 2
FORMER_COERCIONS = [
    (fig4a(noise={"pairs_per_setting": 1000, "trials": 3, "clamp": "no"}), "reconstruct", []),
    (fig4a(output_path=5), "reconstruct", []),
    (fig4a(state={"preset": "fig3"}, theta=True), "reconstruct", []),
    (fig4a(noise={"pairs_per_setting": 2.5}), "tomography", []),
    # numeric strings outside the JSON number grammar, read by int() and float()
    (fig4a(noise={"pairs_per_setting": 1000, "trials": "1_000"}), "reconstruct", []),
    (fig4a(noise={"pairs_per_setting": 1000, "trials": "\u0662"}), "compare", []),
    (fig4a(epsilon=" 0_2e-1 "), "reconstruct", []),
]

# (config, subcommand, flags, error message) whose bool amplitude or unknown key was read
# silently (exit 0: true as 1, the key dropped) and now exit 2 naming it
FORMER_SILENT_READS = [
    (fig4a(state={"amps": [[True, False]] + [[0.5, 0]] * 3}), "reconstruct", [],
     "state.amps must be numbers, not true or false"),
    (fig4a(postselection={"amps": [[0.5, 0]] * 3 + [[0.5, False]]}), "compare", [],
     "postselection.amps must be numbers, not true or false"),
    (fig4a(noise={"pairs_per_setting": 1000, "trails": 5}), "reconstruct", [],
     "noise: unknown field 'trails' (allowed: pairs_per_setting, trials, seed, clamp)"),
    (fig4a(epsilom=0.9), "reconstruct", [],
     "unknown field 'epsilom' (allowed: schema_version, state, theta, postselection, "
     "epsilon, g, method, noise, output_path, format)"),
    (fig4a(state={"preset": "fig4a", "amps": [[0.5, 0]] * 4}), "reconstruct", [],
     "state: unknown field 'amps' (allowed: preset)"),
    (fig4a(state={"amps": [[0.5, 0]] * 4, "dim": [2, 2]}), "tomography", [],
     "state: unknown field 'dim' (allowed: amps, dims)"),
    (fig4a(postselection={"preset": "uniform_plus", "dims": [3, 2]}), "compare", [],
     "postselection: unknown field 'dims' (allowed: preset)"),
]


# (flag, text) that Python's int()/float() read (exit 0), or that argparse refused with a
# usage block, before flags went through the document's typed reader, and the one error
# line each now prints; each flag but --steps prints the line of its document field
FORMER_FLAG_COERCIONS = [
    ("--pairs", "1_000", "noise: field 'pairs_per_setting' must be an integer, got '1_000'"),
    ("--pairs", "\u0665\u0660\u0660",
     "noise: field 'pairs_per_setting' must be an integer, got '\u0665\u0660\u0660'"),
    ("--trials", "\u0663", "noise: field 'trials' must be an integer, got '\u0663'"),
    ("--seed", "0_7", "noise: field 'seed' must be an integer, got '0_7'"),
    ("--epsilon", ".5", "field 'epsilon' must be a finite number, got '.5'"),
    ("--epsilon", "1_0e-1", "field 'epsilon' must be a finite number, got '1_0e-1'"),
    ("--steps", "1e3", "--steps must be an integer, got '1e3'"),
    ("--method", "bogus", "method must be one of ('first_order', 'exact_inversion', "
                          "'definitional'), got 'bogus'"),
]


def with_examples(cases):
    def decorate(test):
        for doc, command, flags in cases:
            test = example(doc=doc, command_line=(command, flags))(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=documents, command_line=command_lines())
@with_examples(FORMER_TRACEBACKS + FORMER_COERCIONS
               + [case[:3] for case in FORMER_SILENT_READS])
def test_every_input_ends_in_a_result_or_one_error_line(run_dir, doc, command_line):
    code, err = run(run_dir, doc, *command_line)
    assert code in {0, 2, 3, 4, 5}
    lines = err.splitlines()
    assert err == "".join(line + "\n" for line in lines)
    warnings = lines if code == 0 else lines[:-1]
    assert all(WARNING_LINE.fullmatch(line) for line in warnings), err
    if code:
        error = ERROR_LINE.fullmatch(lines[-1])
        assert error and EXIT_BY_CODE[error[1]] == code, err


@pytest.mark.parametrize("doc, command, flags", FORMER_TRACEBACKS)
def test_former_tracebacks_are_config_errors(run_dir, doc, command, flags):
    code, err = run(run_dir, doc, command, flags)
    assert code == 2
    assert err.startswith("error: config_error: ") and err.count("\n") == 1



@pytest.mark.parametrize("doc, command, flags, message", FORMER_SILENT_READS)
def test_former_silent_reads_are_one_named_error(run_dir, doc, command, flags, message):
    assert run(run_dir, doc, command, flags) == (2, f"error: config_error: {message}\n")


# a noisy fig4a run, cheap at any pairs_per_setting
NOISY = fig4a(noise={"pairs_per_setting": 1000})
# flag -> (the noise object or the document top level, the field it replaces)
FLAG_FIELDS = {"--method": (False, "method"), "--epsilon": (False, "epsilon"),
               "--format": (False, "format"), "--pairs": (True, "pairs_per_setting"),
               "--trials": (True, "trials"), "--seed": (True, "seed")}
# texts outside the grammar of flag_values
odd_texts = st.one_of(
    st.text(max_size=6), st.floats().map(repr), st.integers(-3, 200).map(str),
    st.from_regex(r" ?[-+]?[0-9_\u0660-\u0669]{0,4}[.]?[0-9_]{0,3}([eE][-+]?[0-9_]{1,3})? ?",
                  fullmatch=True),
    st.sampled_from(["exact_inversion", "csv", "NaN", "Infinity", "true", "null", "", " 1",
                     "2.0", "1e400", str(2**63), str(10**30)]),
)
# a flag of FLAG_FIELDS and its text, half the time from its flag_values, else odd_texts
flag_texts = st.sampled_from(sorted(FLAG_FIELDS)).flatmap(lambda flag: st.tuples(
    st.just(flag), st.booleans().flatmap(lambda odd: odd_texts if odd else flag_values[flag])))


def reads_above(text: str, limit: int) -> bool:
    """Whether Python's float() reads ``text`` as a number above ``limit``."""
    try:
        return float(text) > limit
    except ValueError:
        return False


def with_flag_examples(test):
    for flag, text, _ in FORMER_FLAG_COERCIONS:
        if flag in FLAG_FIELDS:
            test = example(flag_text=(flag, text), command="reconstruct")(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(flag_text=flag_texts, command=st.sampled_from(["reconstruct", "compare", "tomography"]))
@with_flag_examples
def test_a_flag_ends_as_its_field_would(run_dir, flag_text, command):
    flag, text = flag_text
    assume(not (flag == "--trials" and reads_above(text, 100)))  # keep every run cheap
    in_noise, name = FLAG_FIELDS[flag]
    doc = fig4a(noise=dict(NOISY["noise"]))
    (doc["noise"] if in_noise else doc)[name] = text
    assert run(run_dir, NOISY, command, [f"{flag}={text}"]) == run(run_dir, doc, command, [])


@pytest.mark.parametrize("text", ["-", "-1e-3", "-inf"])
@pytest.mark.parametrize("flag", sorted(FLAG_FIELDS))
def test_a_value_starting_with_one_dash_ends_as_its_field_would(run_dir, flag, text):
    # argparse took "-1e-3" and "-inf" after a flag for flags, a usage error
    in_noise, name = FLAG_FIELDS[flag]
    doc = fig4a(noise=dict(NOISY["noise"]))
    (doc["noise"] if in_noise else doc)[name] = text
    want = run(run_dir, doc, "reconstruct", [])
    assert want[0] == 2
    assert run(run_dir, NOISY, "reconstruct", [flag, text]) == want


@pytest.mark.parametrize("text, message", [
    ("-", "field 'epsilon' must be a finite number, got '-'"),
    ("-1e-3", "epsilon must lie in [1e-8, 1]"),
    ("-inf", "field 'epsilon' must be a finite number, got '-inf'"),
])
def test_a_negative_epsilon_gets_the_typed_line(run_dir, text, message):
    assert run(run_dir, NOISY, "reconstruct", ["--epsilon", text]) == (
        2, f"error: config_error: {message}\n")


@pytest.mark.parametrize("flag, text, message", FORMER_FLAG_COERCIONS)
def test_former_flag_coercions_are_one_named_error(run_dir, flag, text, message):
    doc, command = ((fig4a(state={"preset": "fig3"}), "sweep-theta") if flag == "--steps"
                    else (NOISY, "reconstruct"))
    assert run(run_dir, doc, command, [f"{flag}={text}"]) == (
        2, f"error: config_error: {message}\n")


def test_every_error_class_has_its_documented_exit_code():
    def subclasses(cls):
        return [sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))]

    assert {cls.code: cls.exit_code for cls in subclasses(ModvalError)} == EXIT_BY_CODE


INTEGER_FIELDS = ("pairs_per_setting", "trials", "seed")
not_integral = st.one_of(st.floats().filter(lambda x: not x.is_integer()),
                         st.sampled_from(["2.5", "1e3", Raw("1e400"), Raw("NaN")]))
not_bool = st.one_of(st.integers(-1, 2), st.floats(), st.sampled_from(["no", "true", "", [], {}]))
not_string = st.one_of(st.integers(), st.floats(), st.booleans(), st.sampled_from([[], {}, ["-"]]))


@st.composite
def mistyped_documents(draw):
    """A runnable fig4a config with one field of the wrong type."""
    noise = {"pairs_per_setting": 1000, "trials": 2, "seed": 1}
    doc = fig4a(noise=noise)
    kind = draw(st.sampled_from(["bool number", "non-integral", "clamp", "path"]))
    if kind == "bool number":
        name = draw(st.sampled_from(("theta", "epsilon", "g") + INTEGER_FIELDS))
        value = draw(st.booleans())
    elif kind == "non-integral":
        name = draw(st.sampled_from(INTEGER_FIELDS + ("dims",)))
        value = draw(not_integral)
    elif kind == "clamp":
        name, value = "clamp", draw(not_bool)
    else:
        name, value = "output_path", draw(not_string)
    if name == "dims":
        doc["state"] = {"amps": [[0.5, 0]] * 4, "dims": [value, 2]}
    elif name in INTEGER_FIELDS + ("clamp",):
        noise[name] = value
    else:
        doc[name] = value
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=mistyped_documents(),
       command_line=st.tuples(st.sampled_from(["reconstruct", "compare", "tomography"]),
                              st.just([])))
@with_examples(FORMER_COERCIONS)
def test_mistyped_fields_are_config_errors(run_dir, doc, command_line):
    # a bool in a number field, a non-integral integer field, a non-bool clamp or a
    # non-string output path
    code, err = run(run_dir, doc, *command_line)
    assert code == 2
    assert err.startswith("error: config_error: ") and err.count("\n") == 1


def test_null_theta_means_no_theta(run_dir):
    fig3 = {"state": {"preset": "fig3"}, "output_path": "-"}
    assert run(run_dir, fig4a(theta=None, **fig3), "reconstruct", ["--no-timestamp"]) \
        == run(run_dir, fig4a(**fig3), "reconstruct", ["--no-timestamp"]) == (0, "")


def test_pairs_at_the_binomial_limit_run(run_dir):
    for command in ("reconstruct", "compare", "tomography"):
        code, err = run(run_dir, fig4a(), command, ["--pairs=9223372036854775807", "--trials=2"])
        assert (code, err) == (0, "")
        code, err = run(run_dir, fig4a(), command, ["--pairs=9223372036854775808"])
        assert code == 2 and err.startswith("error: config_error: noise: pairs_per_setting")


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_amplitudes_are_one_config_error(run_dir, text):
    # they used to reach the normalization, whose RuntimeWarning joined the error line
    doc = fig4a(state={"amps": [[Raw(text), 0]] + [[0.5, 0]] * 3})
    assert run(run_dir, doc, "reconstruct", []) == (
        2, "error: config_error: state.amps must be finite numbers\n")


def test_config_that_is_not_utf8_is_a_config_error(run_dir):
    path = run_dir / "latin1.json"
    path.write_bytes('{"schema_version": 1, "state": {"preset": "fig4a"}, "x": "\xe9"}'
                     .encode("latin-1"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["reconstruct", "--config", str(path)]) == 2
    assert err.getvalue().startswith(f"error: config_error: config {path}: 'utf-8' codec")
    assert err.getvalue().count("\n") == 1

"""Tests for the CLI layer: scenario schema, command wiring, exit codes,
output formats, and the replication harness plumbing."""

import contextlib
import copy
import dataclasses
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from beliefshift import (
    CurvePoint,
    LearningReport,
    MixtureDist,
    NormalDist,
    ScenarioError,
    learning_report,
    weight_sweep,
)
from beliefshift.cli import (
    GridSpec,
    ReplicationResult,
    load_scenario,
    main,
    parse_scenario,
    run_compare,
    run_prospective,
    run_retrospective,
)
from beliefshift.cli import replication
from beliefshift.cli.main import _report_rows, _write_out
from beliefshift.cli.replication import make_check
from beliefshift.distributions import DEFAULT_GRID_NODES
from beliefshift.prospective import DEFAULT_REPLICATES, MIN_REPLICATES
from literals import dist_to_literal, serialize_scenario
from test_distributions import truncations

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@st.composite
def normals(draw):
    """Normals on the latent domain of ``truncations``."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    return NormalDist(sigma * draw(st.floats(-5.0, 5.0)), sigma)


@st.composite
def compare_scenarios(draw, priors):
    """A prior drawn from ``priors`` (literal, center, scale) against a
    normal or truncated posterior and the posterior of a study up to 40
    prior scales away, its standard error 1e-3 to 1e3 scales."""
    prior, center, scale = draw(priors)
    post = draw(st.one_of(normals(), truncations()))
    estimate = center + scale * draw(st.floats(-40.0, 40.0))
    std_error = scale * 10.0 ** draw(st.floats(-3.0, 3.0))
    return {
        "kind": "compare",
        "prior": prior,
        "posteriors": [
            {"label": "dist", "dist": dist_to_literal(post)},
            {"label": "study", "study": {"estimate": estimate, "std_error": std_error}},
        ],
    }


def normal_family_priors():
    """Normal or truncated priors: (literal, mu, sigma)."""
    return st.one_of(normals(), truncations()).map(lambda d: (dist_to_literal(d), d.mu, d.sigma))


@st.composite
def mixtures(draw):
    """Two or three normal or truncated components, weights drawn from
    [0.05, 1] and normalized."""
    comps = draw(st.lists(st.one_of(normals(), truncations()), min_size=2, max_size=3))
    raw = [draw(st.floats(0.05, 1.0)) for _ in comps]
    total = sum(raw)
    return MixtureDist(tuple((r / total, c) for r, c in zip(raw, comps)))


def mixture_priors():
    """``mixtures`` as (literal, mean, sd)."""
    return mixtures().map(lambda mix: (dist_to_literal(mix), *mix.moments()))


@st.composite
def grid_priors(draw):
    """2 to 40 strictly increasing nodes on a scale of 1e-3 to 1e3, masses
    drawn from [0, 1] and normalized (all zero is left as it is):
    (literal, first node, scale)."""
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=39))
    xs = [scale * draw(st.floats(-5.0, 5.0))]
    for step in steps:
        xs.append(xs[-1] + scale * step)
    masses = [draw(st.floats(0.0, 1.0)) for _ in xs]
    total = sum(masses)
    ws = [m / total for m in masses] if total else masses
    return {"type": "grid", "xs": xs, "ws": ws}, xs[0], scale


@st.composite
def retro_scenarios(draw):
    """A normal, mixture or grid literal prior and one to three studies up
    to 40 prior scales away, their standard errors 1e-3 to 1e3 scales."""
    prior, center, scale = draw(st.one_of(
        normals().map(lambda d: (dist_to_literal(d), d.mu, d.sigma)),
        mixture_priors(), grid_priors()))
    studies = [{"estimate": center + scale * draw(st.floats(-40.0, 40.0)),
                "std_error": scale * 10.0 ** draw(st.floats(-3.0, 3.0))}
               for _ in range(draw(st.integers(1, 3)))]
    return {"kind": "retrospective", "prior": prior, "studies": studies}


@st.composite
def prospect_scenarios(draw, priors, max_weights=3, max_ns=2):
    """Consensus and pioneer priors drawn from ``priors``, one to
    ``max_weights`` weights in [0, 1], one to ``max_ns`` sample sizes up to
    10^4, a noise sd 1e-3 to 1e3 consensus sd, at the replicate floor."""
    consensus, pioneer = draw(priors), draw(priors)
    return {
        "kind": "prospective",
        "seed": draw(st.integers(0, 2**63)),
        "prospective_config": {
            "consensus": dist_to_literal(consensus),
            "pioneer": dist_to_literal(pioneer),
            "weights": draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_weights)),
            "ns": draw(st.lists(st.integers(1, 10_000), min_size=1, max_size=max_ns)),
            "sigma": consensus.moments()[1] * 10.0 ** draw(st.floats(-3.0, 3.0)),
            "replicates": MIN_REPLICATES,
        },
    }


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json_strict(path):
    """Parse a JSON file as RFC 8259 does: Infinity and NaN are errors."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)


def run_fuzz_scenario(command, scenario, fmt="json"):
    """Exit code of ``command`` on ``scenario`` and its --out rows (None unless
    it exited 0): JSON parsed strictly, or CSV as dicts of cell strings."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.json", Path(tmp) / f"fuzz.out.{fmt}"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--scenario", str(path), "--format", fmt,
                         "--out", str(out)])
        if code != 0:
            return code, None
        if fmt == "json":
            return code, read_json_strict(out)
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        return code, [dict(zip(header.split(","), line.split(","))) for line in lines]


CITIZENSHIP = SCENARIO_DIR / "citizenship_truncated.json"
# A window on the citizenship prior's support and a node count below the
# default, each of which moves its W2, as flags and as the file's section.
CITIZENSHIP_GRID_FLAGS = ["--grid-lo", "0", "--grid-hi", "2.5", "--grid-nodes", "512"]
CITIZENSHIP_GRID = {"lo": 0, "hi": 2.5, "nodes": 512}


def citizenship_file(tmp_path, kind, grid=None):
    """The citizenship prior and study as a compare or retrospective file,
    with ``grid`` as its grid section if given: its path."""
    document = json.loads(CITIZENSHIP.read_text(encoding="utf-8"))
    if kind == "retrospective":
        document = {"kind": kind, "prior": document["prior"],
                    "studies": [document["posteriors"][0]["study"]]}
    if grid is not None:
        document["grid"] = grid
    path = tmp_path / f"{kind}_{grid is not None}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


TABLE3_DICT = {
    "kind": "compare",
    "prior": {"type": "normal", "mu": 0.0, "sigma": 10.0},
    "posteriors": [
        {"label": "vaccine", "dist": {"type": "normal", "mu": 5.0, "sigma": 2.5}},
    ],
}


def mixture_literal(weight=0.5, second=None, extra=None):
    """A two-component normal mixture literal: the first weight, the second
    component's dist and extra keys in its entry can be replaced."""
    second = second or {"type": "normal", "mu": 1, "sigma": 1}
    return {"type": "mixture", "components": [
        {"weight": weight, "dist": {"type": "normal", "mu": 0, "sigma": 1}},
        {"weight": 0.5, "dist": second, **(extra or {})},
    ]}


# Scenarios the schema fuzz mutates: the four files, a mixture-prior and a
# grid-prior compare (the second with a grid window).
FUZZ_BASES = [json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8")) for name in (
    "lawn_signs.json", "table3_compare.json", "figure5_sweep.json",
    "citizenship_truncated.json")] + [
    {"kind": "compare", "seed": 3,
     "prior": {"type": "mixture", "components": [
         {"weight": 0.3, "dist": {"type": "normal", "mu": 0, "sigma": 3}},
         {"weight": 0.7, "dist": {"type": "trunc_normal", "mu": 3, "sigma": 1,
                                  "lower": 0, "upper": 10}}]},
     "posteriors": [{"label": "a", "dist": {"type": "normal", "mu": 1, "sigma": 1}},
                    {"label": "b", "study": {"estimate": 1, "std_error": 2}}]},
    {"kind": "compare",
     "prior": {"type": "grid", "xs": [-1, 0, 1], "ws": [0.25, 0.5, 0.25]},
     "posteriors": [{"study": {"estimate": 0.5, "std_error": 1}}],
     "grid": {"lo": -3, "hi": 3, "nodes": 128}},
]


def json_nodes(value, keys=()):
    """(keys, value) for ``value`` and everything inside it, keys from the root."""
    yield keys, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_nodes(child, (*keys, key))


def json_path(keys):
    """The path the parser names: ``prior.components[1].dist``, ``scenario`` for the root."""
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out or "scenario"


@st.composite
def scenario_mutations(draw):
    """One mutation of a FUZZ_BASES scenario at one JSON path: the mutated
    scenario and the paths an error may start with. A dropped key counts its
    own path or its object's, an added key its object's, a value of the wrong
    type its own, and an out-of-range number its own or that of an object
    holding it, whose constructor may check it against its siblings."""
    scenario = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    nodes = dict(json_nodes(scenario))
    action = draw(st.sampled_from(["drop", "add", "set", "range"]))
    pick = {
        "drop": lambda k, v: k and isinstance(k[-1], str),
        "add": lambda k, v: isinstance(v, dict),
        "set": lambda k, v: k,
        "range": lambda k, v: isinstance(v, (int, float)) and not isinstance(v, bool),
    }[action]
    keys = draw(st.sampled_from([k for k, v in nodes.items() if pick(k, v)]))
    if action == "add":
        nodes[keys]["extra_key"] = 1
        return scenario, [json_path(keys)]
    parent = nodes[keys[:-1]]
    if action == "drop":
        del parent[keys[-1]]
        return scenario, [json_path(keys), json_path(keys[:-1])]
    if action == "set":
        parent[keys[-1]] = draw(st.sampled_from(["x", True, False, None, [None]]))
        return scenario, [json_path(keys)]
    parent[keys[-1]] = draw(st.sampled_from([-1, 0, 1.5, -1.5, math.nan, math.inf, -math.inf]))
    return scenario, [json_path(keys[:j]) for j in range(1, len(keys) + 1)]


# Values of the wrong type or past a double's range, for any schema field.
JUNK_VALUES = ["x", True, False, None, [], [None], {}, 10**400, -10**400]
JUNK = st.sampled_from(JUNK_VALUES)
# Hypothesis draws the ends of an integer range far more often than the
# middle, so a rare branch is taken on a middle value of integers(0, 19).
RARELY = 10


def fuzz_field(valid, bad=JUNK):
    """Mostly a draw of ``valid``, about one time in 20 one of ``bad``."""
    return st.integers(0, 19).flatmap(lambda k: bad if k == RARELY else valid)


def fuzz_number(lo=-10.0, hi=10.0):
    """Mostly a number in [lo, hi], sometimes an edge value or JUNK."""
    return fuzz_field(st.floats(lo, hi),
                      st.sampled_from([0, -1, math.nan, math.inf, *JUNK_VALUES]))


@st.composite
def fuzz_object(draw, fields, keep=()):
    """A JSON object over ``fields`` (key: strategy); about one key in 20 is
    dropped, except those in ``keep``, and one object in 20 has an unknown key."""
    obj = {key: draw(value) for key, value in fields.items()
           if key in keep or draw(st.integers(0, 19)) != RARELY}
    if draw(st.integers(0, 19)) == RARELY:
        obj["extra"] = 1
    return obj


@st.composite
def fuzz_dist(draw, depth=1):
    """A distribution literal of any family, its fields fuzzed; mixture
    components nest ``depth`` levels."""
    kind = draw(st.sampled_from(["normal", "trunc_normal", "grid"] + ["mixture"] * (depth > 0)))
    if kind == "grid":
        size = draw(st.integers(2, 4))
        xs = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size,
                                  unique=True)))
        ws = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        ws = [w / sum(ws) for w in ws] if sum(ws) else ws
        fields = {"xs": fuzz_field(st.just(xs)), "ws": fuzz_field(st.just(ws))}
    elif kind == "mixture":
        component = fuzz_object({"weight": fuzz_field(st.just(0.5)), "dist": fuzz_dist(depth - 1)})
        fields = {"components": fuzz_field(st.lists(component, min_size=2, max_size=2))}
    else:
        fields = {"mu": fuzz_number(), "sigma": fuzz_number(0.05, 5.0)}
        if kind == "trunc_normal":
            fields.update(lower=fuzz_number(-10.0, 0.0), upper=fuzz_number(0.5, 10.0))
    return draw(fuzz_object({"type": fuzz_field(st.just(kind)), **fields}))


def fuzz_study():
    return fuzz_object({"estimate": fuzz_number(), "std_error": fuzz_number(0.05, 5.0)})


# The command each kind runs under.
FUZZ_COMMANDS = {"compare": "compare", "retrospective": "retro", "prospective": "prospect"}


@st.composite
def scenario_documents(draw):
    """(command, document): a whole scenario file over the schema's keys,
    every field sometimes of the wrong type, null, a list or 10**400. At most
    1 x 2 cells of 100 to 200 replicates and windows of at most 4,096 nodes,
    so that no example allocates by the size it asks for."""
    kind = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    fields = {"kind": fuzz_field(st.just(kind)), "seed": fuzz_field(st.integers(0, 2**64))}
    if kind == "prospective":
        fields["prospective_config"] = fuzz_field(fuzz_object({
            # No mixtures: a blend with a truncated or grid component takes the
            # per-replicate route, and a mixture reference there costs up to
            # 75 ms a replicate.
            "consensus": fuzz_dist(depth=0), "pioneer": fuzz_dist(depth=0),
            "weights": fuzz_field(st.lists(fuzz_number(0.0, 1.0), min_size=1, max_size=1)),
            "ns": fuzz_field(st.lists(fuzz_field(st.integers(1, 100)), min_size=1, max_size=2)),
            "sigma": fuzz_number(0.05, 5.0),
            # Never missing, which means 10,000, and no integer JUNK.
            "replicates": fuzz_field(st.integers(100, 200), st.sampled_from(["x", None, 1.5])),
        }, keep=("replicates",)))
    else:
        fields["prior"] = fuzz_dist()
        if kind == "retrospective":
            fields["studies"] = fuzz_field(st.lists(fuzz_study(), min_size=1, max_size=2))
        else:
            label = fuzz_field(st.just("p"))
            posterior = st.one_of(fuzz_object({"label": label, "dist": fuzz_dist()}),
                                  fuzz_object({"label": label, "study": fuzz_study()}))
            fields["posteriors"] = fuzz_field(st.lists(posterior, min_size=1, max_size=2))
            if draw(st.booleans()):
                fields["grid"] = fuzz_object({"lo": fuzz_number(-10.0, -1.0),
                                              "hi": fuzz_number(1.0, 10.0),
                                              "nodes": fuzz_field(st.integers(64, 4096))})
    command = draw(fuzz_field(st.just(FUZZ_COMMANDS[kind]), st.sampled_from(["compare", "retro"])))
    return command, draw(fuzz_object(fields))


@st.composite
def fuzz_flags(draw, command):
    """Flags for ``command``, each mostly left out or valid, about one time in
    20 invalid: an infinite or nan edge, one edge alone, a count below the
    floor. At most 4,096 nodes and 200 replicates, as in the documents."""
    if command == "prospect":
        flags = {"--replicates": fuzz_field(st.integers(MIN_REPLICATES, 200) | st.none(),
                                            st.integers(-1, MIN_REPLICATES - 1))}
    else:
        window = draw(st.booleans())

        def edge(valid):
            return fuzz_field(valid if window else st.none(),
                              st.sampled_from([math.inf, -math.inf, math.nan, None]))
        flags = {"--grid-lo": edge(st.floats(-10.0, -1.0)), "--grid-hi": edge(st.floats(1.0, 10.0)),
                 "--grid-nodes": fuzz_field(st.integers(64, 4096) | st.none(),
                                            st.integers(-1, 63))}
    flags["--seed"] = st.integers(-2**64, 2**65) | st.none()
    return [f"{flag}={value!r}" for flag, values in flags.items()
            if (value := draw(values)) is not None]


def run_fuzz_document(command, document, flags=()):
    """Exit code of ``command`` on the scenario file ``document`` with
    ``flags``, everything it printed, and the warnings it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--scenario", str(path), *flags])
    return code, printed.getvalue(), [str(w.message) for w in caught]


def lawn_scenario():
    return load_scenario(str(SCENARIO_DIR / "lawn_signs.json"))


class TestScenarioSchema:
    @pytest.mark.parametrize(
        "name",
        ["lawn_signs.json", "table3_compare.json", "figure5_sweep.json",
         "citizenship_truncated.json"],
    )
    def test_round_trip_identity(self, name):
        scenario = load_scenario(str(SCENARIO_DIR / name))
        again = parse_scenario(serialize_scenario(scenario))
        assert again == scenario

    def test_prospective_replicates_default(self):
        scenario = parse_scenario({
            "kind": "prospective",
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.5],
                "ns": [10],
                "sigma": 1.0,
            },
        })
        assert scenario.prospective_config.replicates == DEFAULT_REPLICATES

    def test_missing_kind(self):
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario({"prior": {"type": "normal", "mu": 0, "sigma": 1}})

    def test_unknown_root_key(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            parse_scenario({"kind": "compare", "priur": {}})

    def test_retrospective_requires_studies(self):
        with pytest.raises(ScenarioError, match="studies"):
            parse_scenario({
                "kind": "retrospective",
                "prior": {"type": "normal", "mu": 0, "sigma": 5},
                "studies": [],
            })

    def test_study_path_in_error(self):
        with pytest.raises(ScenarioError, match=r"studies\[1\]"):
            parse_scenario({
                "kind": "retrospective",
                "prior": {"type": "normal", "mu": 0, "sigma": 5},
                "studies": [
                    {"estimate": 2.5, "std_error": 1.7},
                    {"estimate": 1.0, "std_error": -1.0},
                ],
            })

    def test_weight_path_in_error(self):
        with pytest.raises(ScenarioError, match=r"prospective_config\.weights\[1\]"):
            parse_scenario({
                "kind": "prospective",
                "prospective_config": {
                    "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                    "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                    "weights": [0.0, 1.5],
                    "ns": [10],
                    "sigma": 1.0,
                },
            })

    def test_posterior_needs_exactly_one_source(self):
        base = {
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
        }
        with pytest.raises(ScenarioError, match=r"posteriors\[0\]"):
            parse_scenario({**base, "posteriors": [{
                "label": "both",
                "dist": {"type": "normal", "mu": 5, "sigma": 5},
                "study": {"estimate": 6.67, "std_error": 5.77},
            }]})
        with pytest.raises(ScenarioError, match=r"posteriors\[0\]"):
            parse_scenario({**base, "posteriors": [{"label": "neither"}]})

    def test_grid_validation(self):
        with pytest.raises(ScenarioError, match="grid"):
            parse_scenario({**TABLE3_DICT, "grid": {"lo": 2.0, "hi": -2.0}})
        with pytest.raises(ScenarioError, match=r"grid\.nodes: must be at least 64"):
            parse_scenario({**TABLE3_DICT, "grid": {"lo": -2.0, "hi": 2.0, "nodes": 10}})

    def test_grid_nodes_default(self):
        scenario = parse_scenario({**TABLE3_DICT, "grid": {"lo": -2.0, "hi": 2.0}})
        assert scenario.grid.nodes == DEFAULT_GRID_NODES

    def test_no_grid_section_is_no_window_at_the_default_count(self):
        assert parse_scenario(TABLE3_DICT).grid == GridSpec(None, None, DEFAULT_GRID_NODES)
        # GridSpec holds the flags' rules too: a window is both edges or neither.
        for edges in ({"lo": 0.0}, {"hi": 1.0}):
            with pytest.raises(ValueError, match="grid: lo and hi must be given together"):
                GridSpec(**edges)

    def test_boolean_rejected_as_number(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario({**TABLE3_DICT, "seed": True})

    @settings(max_examples=400, deadline=None)
    @given(scenario_mutations())
    def test_mutation_fuzz_errors_start_with_the_path(self, case):
        scenario, paths = case
        try:
            parse_scenario(scenario)
        except ScenarioError as exc:
            assert any(str(exc).startswith((f"{p}:", f"{p}.", f"{p}[")) for p in paths), \
                (str(exc), paths)

    def test_load_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="scenario file"):
            load_scenario(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(str(bad))


class TestRunRetrospective:
    def test_lawn_sign_chain(self):
        rows = run_retrospective(lawn_scenario())
        labels = [label for label, _ in rows]
        assert labels == ["step_1", "step_2", "step_3", "step_4", "cumulative"]
        stepwise = [report.w2 for label, report in rows[:-1]]
        for got, published in zip(stepwise, [4.0, 0.3, 0.8, 0.3]):
            assert abs(got - published) < 0.15
        cumulative = rows[-1][1].w2
        assert abs(cumulative - 4.6) < 0.1
        assert sum(stepwise) > cumulative

    def test_single_study(self):
        scenario = parse_scenario({
            "kind": "retrospective",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "studies": [{"estimate": 6.67, "std_error": 5.77}],
        })
        rows = run_retrospective(scenario)
        assert len(rows) == 2
        assert abs(rows[0][1].w2 - 7.07) < 0.01
        assert rows[0][1].w2 == rows[1][1].w2

    def test_reads_the_scenario_grid(self, tmp_path, capsys):
        # The rows of the file's grid are those of the same grid given as flags.
        rows = run_retrospective(load_scenario(str(
            citizenship_file(tmp_path, "retrospective", CITIZENSHIP_GRID))))
        columns = LearningReport.CSV_COLUMNS
        library, by_flags = tmp_path / "library.csv", tmp_path / "flags.csv"
        _write_out(str(library), "csv", ("step", *columns), _report_rows(rows, columns))
        assert main(["retro", "--scenario", str(citizenship_file(tmp_path, "retrospective")),
                     *CITIZENSHIP_GRID_FLAGS, "--out", str(by_flags)]) == 0
        capsys.readouterr()
        assert library.read_bytes() == by_flags.read_bytes()


class TestRunCompare:
    def test_table3_values(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [
                {"label": "r1", "dist": {"type": "normal", "mu": 5, "sigma": 5}},
                {"label": "r2", "dist": {"type": "normal", "mu": 5, "sigma": 2.5}},
                {"label": "r3", "dist": {"type": "normal", "mu": 3, "sigma": 5}},
                {"label": "r4", "dist": {"type": "normal", "mu": 0, "sigma": 1}},
            ],
        })
        rows = run_compare(scenario)
        w2s = [r.w2 for _, r in rows]
        for got, expected in zip(w2s, [7.071, 9.014, 5.831, 9.0]):
            assert abs(got - expected) < 0.005
        for (_, r), expected in zip(rows, [1.75, 9.156, 1.35, 49.005]):
            assert abs(r.kl_sym - expected) < 0.005
        for (_, r), expected in zip(rows, [math.log(2), math.log(4),
                                           math.log(2), math.log(10)]):
            assert abs(abs(r.lindley) - expected) < 1e-9
        for (_, r), (mean_sq, sd_sq) in zip(rows, [(25, 25), (25, 56.25),
                                                   (9, 25), (0, 81)]):
            assert abs(r.mean_shift_sq - mean_sq) < 1e-9
            assert abs(r.sd_shift_sq - sd_sq) < 1e-9

    def test_identical_posterior_all_zero(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [{"label": "same",
                            "dist": {"type": "normal", "mu": 0, "sigma": 10}}],
        })
        report = run_compare(scenario)[0][1]
        assert report.w2 == 0.0
        assert report.kl_sym == 0.0
        assert report.lindley == 0.0

    def test_study_posterior_equals_conjugate(self):
        scenario = parse_scenario({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 10},
            "posteriors": [{"label": "conj",
                            "study": {"estimate": 6.67, "std_error": 5.77}}],
        })
        report = run_compare(scenario)[0][1]
        mean, sd = oracles.conjugate_posterior(0.0, 10.0, 6.67, 5.77)
        expected = oracles.normal_w2(0.0, 10.0, mean, sd)
        assert abs(report.w2 - expected) < 1e-9

    def test_reads_the_scenario_grid(self, tmp_path, capsys):
        # The default 4,096-node window reads 0.3343245485782415.
        with_grid = citizenship_file(tmp_path, "compare", CITIZENSHIP_GRID)
        assert run_compare(load_scenario(str(with_grid)))[0][1].w2 == 0.33434178083022087
        by_file, by_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["compare", "--scenario", str(with_grid), "--out", str(by_file)]) == 0
        assert main(["compare", "--scenario", str(CITIZENSHIP), *CITIZENSHIP_GRID_FLAGS,
                     "--out", str(by_flags)]) == 0
        capsys.readouterr()
        assert by_flags.read_bytes() == by_file.read_bytes()


class TestRunProspective:
    def test_point_grid_size(self):
        scenario = parse_scenario({
            "kind": "prospective",
            "seed": 3,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.0, 1.0],
                "ns": [10, 50],
                "sigma": 3.0,
                "replicates": 150,
            },
        })
        points = run_prospective(scenario)
        assert len(points) == 4
        assert all(pt.expected_learning > 0.0 for pt in points)

    def test_reads_replicates_and_seed_from_the_scenario(self, tmp_path, capsys):
        document = {
            "kind": "prospective",
            "seed": 3,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.5],
                "ns": [10],
                "sigma": 3.0,
                "replicates": 150,
            },
        }
        scenario = parse_scenario(document)
        cfg = dataclasses.replace(scenario.prospective_config, replicates=120)
        changed = dataclasses.replace(scenario, seed=5, prospective_config=cfg)
        points = run_prospective(changed)
        assert points == weight_sweep(cfg.consensus, cfg.pioneer, cfg.sigma, cfg.weights, cfg.ns,
                                      replicates=120, seed=5)
        assert points != run_prospective(scenario)
        # The CLI folds --replicates and --seed into the same fields.
        path, library, by_flags = (tmp_path / f for f in ("cell.json", "lib.csv", "flags.csv"))
        path.write_text(json.dumps(document), encoding="utf-8")
        _write_out(str(library), "csv", ("w", "n", "expected_learning", "mc_std_error"),
                   [(pt.w, pt.n, pt.expected_learning, pt.mc_std_error) for pt in points])
        assert main(["prospect", "--scenario", str(path), "--replicates", "120", "--seed", "5",
                     "--out", str(by_flags)]) == 0
        capsys.readouterr()
        assert by_flags.read_bytes() == library.read_bytes()


class TestReplicationResult:
    def test_boundary_counts_as_pass(self):
        check = make_check("edge", 1.0, 1.5, 0.5)
        assert check.passed

    def test_inconsistent_flag_rejected(self):
        # passed is read off the other fields: no flag can be given or set.
        with pytest.raises(TypeError):
            ReplicationResult("bad", 1.0, 2.0, 0.5, True)
        check = ReplicationResult("bad", 1.0, 2.0, 0.5)
        assert not check.passed
        with pytest.raises(AttributeError):
            check.passed = True

    def test_harness_detects_tampering(self, monkeypatch):
        def broken_w2(a, b):
            return math.sqrt(abs((a.mu - b.mu) ** 2 - (a.sigma - b.sigma) ** 2))

        monkeypatch.setattr(replication, "w2_normal", broken_w2)
        results, _ = replication.run_replicate_paper(seed=0, replicates=100)
        by_name = {r.check_name: r for r in results}
        assert not by_name["table1_row1_w2"].passed
        assert not all(r.passed for r in results)


MIXTURE_REPORT_ARGS = (NormalDist(0, 3),
                       MixtureDist(((0.5, NormalDist(0, 1)), (0.5, NormalDist(3, 1)))))


class TestWriteOut:
    """The one --out writer and its cell rules."""

    @staticmethod
    def write(tmp_path, fmt, header, rows):
        path = tmp_path / f"out.{fmt}"
        _write_out(str(path), fmt, header, rows)
        return path

    def test_report_rows_in_every_column(self, tmp_path):
        columns = LearningReport.CSV_COLUMNS
        rows = [("normal", learning_report(NormalDist(0, 10), NormalDist(5, 5))),
                ("mixed", learning_report(*MIXTURE_REPORT_ARGS))]
        path = self.write(tmp_path, "csv", ("posterior", *columns), _report_rows(rows, columns))
        header, normal, mixed = (line.split(",") for line in
                                 path.read_text(encoding="utf-8").splitlines())
        assert header == ["posterior", *columns]
        assert len(normal) == len(mixed) == 1 + len(columns)
        assert normal[-1] == "true"
        # An undefined value (KL against a mixture) is an empty cell.
        assert mixed[1 + columns.index("kl_forward")] == "" and mixed[-1] == "false"

    def test_column_subset_keeps_its_order(self, tmp_path):
        report = learning_report(*MIXTURE_REPORT_ARGS)
        columns = ("kl_sym", "w2")
        path = self.write(tmp_path, "csv", ("posterior", *columns),
                          _report_rows([("mixed", report)], columns))
        assert path.read_text(encoding="utf-8") == f"posterior,kl_sym,w2\nmixed,,{report.w2!r}\n"

    def test_csv_cells(self, tmp_path):
        points = [CurvePoint(0.0, 10, 0.5, 0.01), CurvePoint(0.1, 50, 0.75, 0.02)]
        path = self.write(tmp_path, "csv", ("w", "n", "expected_learning", "mc_std_error"),
                          [(pt.w, pt.n, pt.expected_learning, pt.mc_std_error)
                           for pt in points] + [(True, False, None, math.inf)])
        assert path.read_text(encoding="utf-8") == (
            "w,n,expected_learning,mc_std_error\n0.0,10,0.5,0.01\n0.1,50,0.75,0.02\n"
            "true,false,,inf\n")

    def test_json_cells(self, tmp_path):
        path = self.write(tmp_path, "json", ("label", "n", "x", "flag", "missing"),
                          [("a", 10, 0.5, True, None), ("b", 0, math.inf, False, None),
                           ("c", 1, -math.inf, False, math.nan)])
        text = path.read_text(encoding="utf-8")
        assert text.endswith("]\n")
        assert read_json_strict(path) == [
            {"label": "a", "n": 10, "x": 0.5, "flag": True, "missing": None},
            {"label": "b", "n": 0, "x": None, "flag": False, "missing": None},
            {"label": "c", "n": 1, "x": None, "flag": False, "missing": None},
        ]


# --out files pinned byte for byte: any change to a CSV or JSON cell rule,
# a header or a row order shows here. They pin the numbers too: the prospect
# and truncated-compare files move with any change to the transport kernel or
# the truncated-normal terms, even one inside its stated accuracy. Such a
# change regenerates them on purpose (`python -m beliefshift.cli <args>
# --out tests/golden/<name>`) and says in its change notes that it did.
GOLDEN_RUNS = {
    "retro_lawn_signs.csv": ["retro", "--scenario", str(SCENARIO_DIR / "lawn_signs.json")],
    "compare_table3_all.csv": ["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                               "--metric", "all"],
    "compare_table3_kl.csv": ["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                              "--metric", "kl"],
    "compare_citizenship_truncated.csv": [
        "compare", "--scenario", str(SCENARIO_DIR / "citizenship_truncated.json")],
    "prospect_figure5_sweep.csv": ["prospect", "--scenario",
                                   str(SCENARIO_DIR / "figure5_sweep.json"),
                                   "--replicates", "100", "--seed", "7"],
    # The bench's replicate count: the Chebyshev route, which 100 never reaches.
    "prospect_figure5_sweep_500.csv": ["prospect", "--scenario",
                                       str(SCENARIO_DIR / "figure5_sweep.json"),
                                       "--replicates", "500", "--seed", "7"],
    "compare_table3_all.json": ["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                                "--format", "json"],
    "prospect_figure5_sweep.json": ["prospect", "--scenario",
                                    str(SCENARIO_DIR / "figure5_sweep.json"),
                                    "--replicates", "100", "--seed", "7", "--format", "json"],
}


class TestCommandLine:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_out_file_matches_golden_bytes(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert main([*GOLDEN_RUNS[name], "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_prior_with_no_spread_writes_null_not_infinity(self, tmp_path, capsys):
        scenario = tmp_path / "spike.json"
        scenario.write_text(json.dumps({
            "kind": "retrospective",
            "prior": {"type": "grid", "xs": [0, 1], "ws": [0, 1]},
            "studies": [{"estimate": 0, "std_error": 1}],
        }), encoding="utf-8")
        as_json, as_csv = tmp_path / "spike.out.json", tmp_path / "spike.out.csv"
        assert main(["retro", "--scenario", str(scenario), "--format", "json",
                     "--out", str(as_json)]) == 0
        assert main(["retro", "--scenario", str(scenario), "--out", str(as_csv)]) == 0
        capsys.readouterr()
        rows = read_json_strict(as_json)
        assert [row["step"] for row in rows] == ["step_1", "cumulative"]
        assert all(row["normalized_w2"] is None for row in rows)
        header, *lines = as_csv.read_text(encoding="utf-8").splitlines()
        column = header.split(",").index("normalized_w2")
        assert [line.split(",")[column] for line in lines] == ["inf", "inf"]

    def test_retro_command(self, tmp_path, capsys):
        out = tmp_path / "lawn.csv"
        code = main(["retro", "--scenario", str(SCENARIO_DIR / "lawn_signs.json"),
                     "--out", str(out)])
        assert code == 0
        assert "not cumulative" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "step," + ",".join(LearningReport.CSV_COLUMNS)
        assert len(lines) == 6

    def test_compare_command_metric_selection(self, tmp_path, capsys):
        out = tmp_path / "kl.csv"
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--metric", "kl", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "posterior,kl_forward,kl_reverse,kl_sym"
        assert len(lines) == 5

    def test_compare_json_output(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 4
        assert abs(rows[0]["w2"] - 7.071) < 0.005
        assert rows[0]["decomposition_exact"] is True

    def test_compare_mean_shift_whose_square_overflows(self, tmp_path, capsys):
        scenario = tmp_path / "huge.json"
        scenario.write_text(json.dumps({
            "kind": "compare",
            "prior": {"type": "normal", "mu": 0, "sigma": 1e160},
            "posteriors": [{"label": "shifted", "dist": {"type": "normal", "mu": 1e160,
                                                         "sigma": 1e160}}],
        }), encoding="utf-8")
        out = tmp_path / "huge.json.out"
        assert main(["compare", "--scenario", str(scenario), "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        [row] = json.loads(out.read_text(encoding="utf-8"))
        assert (row["w2"], row["normalized_w2"], row["mean_shift_sq"]) == (1e160, 1.0, None)

    def test_compare_truncated_prior_against_normal_is_not_exact(self, tmp_path, capsys):
        # A finite standardized bound once matched the normal's infinite one.
        scenario = tmp_path / "pair.json"
        scenario.write_text(json.dumps({
            "kind": "compare",
            "prior": {"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0, "upper": 1},
            "posteriors": [{"label": "normal", "dist": {"type": "normal", "mu": 0.3,
                                                        "sigma": 0.5}}],
        }), encoding="utf-8")
        out = tmp_path / "pair.csv"
        assert main(["compare", "--scenario", str(scenario), "--out", str(out)]) == 0
        capsys.readouterr()
        header, row = out.read_text(encoding="utf-8").splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["decomposition_exact"] == "false"
        assert abs(float(cells["w2"]) - 0.275350) < 1e-5

    @settings(max_examples=100, deadline=None)
    @given(compare_scenarios(normal_family_priors()))
    def test_compare_fuzz_exits_cleanly(self, scenario):
        self.check_compare_fuzz(scenario)

    @settings(max_examples=50, deadline=None)
    @given(compare_scenarios(st.one_of(mixture_priors(), grid_priors())))
    def test_compare_fuzz_mixture_and_grid_priors_exit_cleanly(self, scenario):
        self.check_compare_fuzz(scenario)

    @staticmethod
    def check_compare_fuzz(scenario):
        code, rows = run_fuzz_scenario("compare", scenario)
        assert code in (0, 1, 2)
        if code != 0:
            return
        dist_row, study_row = rows
        prior, post = scenario["prior"], scenario["posteriors"][0]["dist"]
        for row in (dist_row, study_row):
            # Strict parsing refuses Infinity and NaN, so a number is finite.
            assert isinstance(row["w2"], float) and row["w2"] >= 0.0
            if prior["type"] == "mixture":
                assert all(row[name] is None
                           for name in ("kl_forward", "kl_reverse", "kl_sym", "lindley"))
            for name in ("kl_forward", "kl_reverse"):
                assert row[name] is None or row[name] >= 0.0
            if row["kl_forward"] is None:
                assert row["kl_reverse"] is None and row["kl_sym"] is None
            else:
                assert row["kl_sym"] == row["kl_forward"] + row["kl_reverse"]
        if dist_row["decomposition_exact"]:
            assert ("lower" in prior, "upper" in prior) == ("lower" in post, "upper" in post)
        if study_row["decomposition_exact"]:
            # Only a normal prior has a posterior of its own family; a
            # truncated one is updated on a grid.
            assert prior["type"] == "normal"

    @settings(max_examples=50, deadline=None)
    @given(retro_scenarios())
    def test_retro_fuzz_exits_cleanly(self, scenario):
        code, rows = run_fuzz_scenario("retro", scenario)
        assert code in (0, 1, 2)
        if code != 0:
            return
        assert len(rows) == len(scenario["studies"]) + 1
        for row in rows:
            # Strict parsing refuses Infinity and NaN; null marks a value
            # that is undefined or not finite.
            for name in ("w2", "mean_shift_sq", "sd_shift_sq"):
                assert isinstance(row[name], float) and row[name] >= 0.0, (name, row[name])
            assert row["normalized_w2"] is None or row["normalized_w2"] >= 0.0
        # JSON null cannot tell "not finite" from "undefined"; the CSV can
        # (inf and nan against an empty cell). Every value is finite or
        # undefined, except that a prior with no spread (a grid with one
        # positive mass) has no scale to normalize by: normalized_w2 is inf.
        code, cells = run_fuzz_scenario("retro", scenario, fmt="csv")
        assert code == 0 and len(cells) == len(rows)
        for row in cells:
            for name, cell in row.items():
                if cell in ("inf", "-inf", "nan"):
                    assert name == "normalized_w2" and cell == "inf", (name, cell)

    @settings(max_examples=50, deadline=None)
    @given(prospect_scenarios(normals()))
    def test_prospect_fuzz_exits_cleanly(self, scenario):
        self.check_prospect_fuzz(scenario)

    # One cell each, and few examples: a truncated component sends a cell to
    # the per-replicate route, 5 to 75 ms a replicate.
    @settings(max_examples=12, deadline=None)
    @given(prospect_scenarios(st.one_of(truncations(), mixtures()), max_weights=1, max_ns=1))
    # A consensus break 8 sds out whose level rounds to exactly 1.
    @example({
        "kind": "prospective",
        "seed": 0,
        "prospective_config": {
            "consensus": dist_to_literal(MixtureDist(((0.787502808948429, NormalDist(0.0, 1.0)),
                                                      (0.21249719105157117, NormalDist(1.0, 1.0))))),
            "pioneer": {"type": "trunc_normal", "mu": 0.0, "sigma": 1.0, "lower": 0.0},
            "weights": [0.0],
            "ns": [1],
            "sigma": 1.0804360854982413,
            "replicates": 100,
        },
    })
    def test_prospect_fuzz_mixture_and_truncated_priors_exit_cleanly(self, scenario):
        self.check_prospect_fuzz(scenario)

    @staticmethod
    def check_prospect_fuzz(scenario):
        code, rows = run_fuzz_scenario("prospect", scenario)
        assert code in (0, 1, 2)
        if code != 0:
            return
        cfg = scenario["prospective_config"]
        assert len(rows) == len(cfg["weights"]) * len(cfg["ns"])
        for row in rows:
            assert math.isfinite(row["expected_learning"]) and row["expected_learning"] >= 0.0
            assert math.isfinite(row["mc_std_error"]) and row["mc_std_error"] > 0.0

    @settings(max_examples=100, deadline=None)
    @given(scenario_documents())
    def test_whole_scenario_file_fuzz_exits_cleanly(self, case):
        code, printed, caught = run_fuzz_document(*case)
        assert code in (0, 1, 2)
        assert "Traceback" not in printed
        assert not caught, caught

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_flags_over_whole_scenario_file_fuzz_exits_cleanly(self, data):
        command, document = data.draw(scenario_documents())
        flags = data.draw(fuzz_flags(command))
        code, printed, caught = run_fuzz_document(command, document, flags)
        assert code in (0, 1, 2)
        assert "Traceback" not in printed
        assert not caught, caught

    def test_kind_mismatch_exits_one(self, capsys):
        code = main(["retro", "--scenario", str(SCENARIO_DIR / "table3_compare.json")])
        assert code == 1
        assert "expected retrospective" in capsys.readouterr().err

    def test_missing_scenario_exits_one(self, tmp_path, capsys):
        code = main(["retro", "--scenario", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "empty_studies.json"
        bad.write_text(json.dumps({
            "kind": "retrospective",
            "prior": {"type": "normal", "mu": 0, "sigma": 5},
            "studies": [],
        }), encoding="utf-8")
        code = main(["retro", "--scenario", str(bad)])
        assert code == 1
        assert "studies" in capsys.readouterr().err

    def test_half_grid_flags_exit_one(self, capsys):
        code = main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--grid-lo", "0"])
        assert code == 1
        assert "grid" in capsys.readouterr().err

    def test_grid_nodes_flag_names_the_scenario_field(self, capsys):
        # The flag is folded into the scenario's grid, whose check names it.
        assert main(["compare", "--scenario", str(CITIZENSHIP), "--grid-nodes", "10"]) == 1
        assert capsys.readouterr().err == "error: grid.nodes: must be at least 64\n"

    @pytest.mark.parametrize("out", [".", "missing/out.csv"], ids=["directory", "missing_parent"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, out):
        path = tmp_path / out
        assert main(["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"),
                     "--out", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --out {path}: ")

    def test_scenario_file_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "compare", "label": "\u00e9"}'.encode("latin-1"))
        assert main(["compare", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: scenario file {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("prior, message", [
        (mixture_literal(weight="0.5"), "prior.components[0].weight: expected a number"),
        (mixture_literal(weight=True), "prior.components[0].weight: expected a number"),
        ({"type": "grid", "xs": ["0", "1"], "ws": [0.5, 0.5]}, "prior.xs[0]: expected a number"),
        ({"type": "grid", "xs": [False, True], "ws": [0.5, 0.5]},
         "prior.xs[0]: expected a number"),
        ({"type": "grid", "xs": [0, 1], "ws": ["0.5", "0.5"]}, "prior.ws[0]: expected a number"),
        ({"type": "grid", "xs": [0, 1], "ws": [False, True]}, "prior.ws[0]: expected a number"),
        (mixture_literal(second={"type": "normal", "mu": 1, "sigma": "x"}),
         "prior.components[1].dist.sigma: expected a number"),
        ({"type": "normal", "mu": 0}, "prior.sigma: missing"),
        (mixture_literal(extra={"x": 1}), "prior.components[1]: unknown keys x"),
        ({"type": "normal", "mu": 10**400, "sigma": 1},
         "prior.mu: expected a number within the range of a double"),
    ], ids=["string", "bool", "grid_xs_string", "grid_xs_bool", "grid_ws_string",
            "grid_ws_bool", "nested_sigma_string", "missing_sigma", "component_unknown_key",
            "integer_past_the_doubles"])
    def test_mixture_weight_must_be_a_number(self, tmp_path, capsys, prior, message):
        # Each of these used to run with exit 0 (a string weight; true read as
        # 1.0; grid nodes "0" or false read as 0.0; an unknown component key),
        # or named no path or the wrong rule.
        scenario = tmp_path / "weights.json"
        scenario.write_text(json.dumps({
            "kind": "compare",
            "prior": prior,
            "posteriors": [{"study": {"estimate": 1.0, "std_error": 1.0}}],
        }), encoding="utf-8")
        assert main(["compare", "--scenario", str(scenario)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("change, argv, field", [
        ({"sigma": math.nan}, [], "prospective_config.sigma"),
        ({"sigma": math.inf}, [], "prospective_config.sigma"),
        ({"weights": []}, [], "prospective_config.weights"),
        ({"ns": []}, [], "prospective_config.ns"),
        ({"sigma": 0}, [], "prospective_config.sigma"),
        ({"ns": [0]}, [], "prospective_config.ns[0]"),
        ({}, ["--replicates", "5"], "--replicates"),
        ({"ns": [10**400]}, [], "prospective_config.ns[0]"),
        ({"sigma": 1e-300, "ns": [10**300]}, [], "prospective_config.ns[0]"),
    ], ids=["sigma_nan", "sigma_inf", "weights_empty", "ns_empty", "sigma_zero", "n_zero",
            "replicates_flag", "n_past_the_doubles", "std_error_underflows"])
    def test_prospective_range_errors_name_the_field(self, tmp_path, capsys, change, argv, field):
        scenario = tmp_path / "cell.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.5],
                "ns": [10],
                "sigma": 1.0,
                "replicates": 100,
                **change,
            },
        }), encoding="utf-8")
        assert main(["prospect", "--scenario", str(scenario), *argv]) == 1
        assert f"error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("prior, grid, argv", [
        ({"type": "normal", "mu": 0, "sigma": 1}, {"lo": -math.inf, "hi": 5}, []),
        ({"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0},
         {"lo": 0, "hi": math.inf}, []),
        ({"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0}, None,
         ["--grid-lo", "0", "--grid-hi", "inf"]),
        ({"type": "normal", "mu": 0, "sigma": 1}, None, ["--grid-lo=-inf", "--grid-hi", "5"]),
        ({"type": "normal", "mu": 0, "sigma": 1}, None, ["--grid-lo", "nan", "--grid-hi", "5"]),
    ], ids=["scenario_lo_-inf", "scenario_hi_inf", "flag_hi_inf", "flag_lo_-inf", "flag_lo_nan"])
    def test_grid_window_edges_must_be_finite(self, tmp_path, capsys, prior, grid, argv):
        # Python's json reads -Infinity and argparse's float reads inf and nan;
        # each is a validation error, not a numeric one.
        scenario = tmp_path / "window.json"
        scenario.write_text(json.dumps({
            "kind": "compare",
            "prior": prior,
            "posteriors": [{"study": {"estimate": 0.074, "std_error": 0.121}}],
            **({} if grid is None else {"grid": grid}),
        }), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", "--scenario", str(scenario), *argv]) == 1
        assert capsys.readouterr().err == (
            "error: grid: lo and hi must be finite, with lo strictly below hi\n")

    @pytest.mark.parametrize("sigma", [1e17, 1e18, 1e20])
    def test_near_constant_learning_passes_the_jensen_check(self, tmp_path, capsys, sigma):
        # The study teaches nothing, so every replicate's W2 is the pioneer's
        # 1.2e6 distance from the consensus: a slack of a few MC errors (about
        # 2e-12) is smaller than the rounding of sqrt(E[W2^2]).
        scenario = tmp_path / "flat.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 0, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 1234567.891, "sigma": 1},
                "weights": [1], "ns": [1], "sigma": sigma, "replicates": 10_000,
            },
        }), encoding="utf-8")
        out = tmp_path / "flat.csv"
        assert main(["prospect", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert abs(float(row[2]) - 1234567.891) < 1e-3

    def test_numeric_error_exits_two(self, capsys):
        code = main(["compare",
                     "--scenario", str(SCENARIO_DIR / "citizenship_truncated.json"),
                     "--grid-lo", "0", "--grid-hi", "2"])
        assert code == 2
        assert "numeric error" in capsys.readouterr().err

    def test_extreme_prior_scales_exit_cleanly(self, tmp_path, capsys):
        # sigma**2 underflows (1e-300) or overflows (1e300) in a naive update.
        outcomes = {}
        for sigma in (1e-300, 1e300):
            scenario = tmp_path / f"scale_{sigma:g}.json"
            scenario.write_text(json.dumps({
                "kind": "compare",
                "prior": {"type": "normal", "mu": 0, "sigma": sigma},
                "posteriors": [{"label": "a", "study": {"estimate": 0.5, "std_error": 1.0}}],
            }), encoding="utf-8")
            out = tmp_path / f"scale_{sigma:g}.json.out"
            code = main(["compare", "--scenario", str(scenario), "--format", "json",
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            outcomes[sigma] = (code, err, out)
        # A 1e-300 prior swamps the study: the posterior is the prior, so
        # nothing is learned.
        code, err, out = outcomes[1e-300]
        assert code == 0 and err == ""
        row = json.loads(out.read_text(encoding="utf-8"))[0]
        assert row["w2"] == 0.0 and row["kl_sym"] == 0.0 and row["lindley"] == 0.0
        # A 1e300 prior shrinks to sd 1: KL(prior || post), about 5e599, is out of range.
        code, err, _ = outcomes[1e300]
        assert code == 2
        assert err.startswith("numeric error:")

    def test_truncated_consensus_cell_runs(self, tmp_path, capsys):
        # Some replicates move the consensus core 11.8 sd below its bound.
        scenario = tmp_path / "truncated.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 7,
            "prospective_config": {
                "consensus": {"type": "trunc_normal", "mu": 0.2, "sigma": 0.4, "lower": 0},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 1},
                "weights": [0.5],
                "ns": [50],
                "sigma": 1,
                "replicates": 100,
            },
        }), encoding="utf-8")
        out = tmp_path / "cell.csv"
        code = main(["prospect", "--scenario", str(scenario), "--seed", "7", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "w,n,expected_learning,mc_std_error"
        assert len(rows) == 1
        assert all(math.isfinite(float(v)) for v in rows[0].split(","))

    def test_import_loads_neither_scipy_stats_nor_optimize(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "[]"

    def test_import_loads_neither_cli_nor_argparse(self):
        # The scenario field checks live in distributions, so the library
        # import stays clear of the command line.
        probe = ("import sys, beliefshift; "
                 "print(sorted(m for m in ('argparse', 'beliefshift.cli') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print('concurrent.futures' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "False"

    def test_import_loads_neither_scipy_nor_numpy_random(self):
        probe = ("import sys, beliefshift, beliefshift.cli.main; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=str(REPO_ROOT), check=True)
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["retro", "--scenario", str(SCENARIO_DIR / "lawn_signs.json")],
        ["compare", "--scenario", str(SCENARIO_DIR / "table3_compare.json"), "--metric", "all"],
        ["prospect", "--scenario", str(SCENARIO_DIR / "figure5_sweep.json"),
         "--replicates", "100"],
        ["compare", "--scenario", str(SCENARIO_DIR / "citizenship_truncated.json")],
        ["replicate-paper", "--replicates", "100"],
    ], ids=["retro", "compare", "prospect", "compare_truncated", "replicate_paper"])
    def test_normal_readings_leave_scipy_special_unloaded(self, argv):
        probe = ("import sys; from beliefshift.cli.main import main; code = main(sys.argv[1:]); "
                 "sys.stderr.write(str(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                              text=True, cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]"

    def test_fresh_mixture_prospect_matches_in_process_run(self, tmp_path, capsys):
        # A fresh process runs the MC engine with nothing warmed up by the
        # tests before it; its bytes must not depend on that.
        scenario = tmp_path / "mixture.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 5,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.2, 0.5, 0.8],
                "ns": [10],
                "sigma": 3.0,
                "replicates": 300,
            },
        }), encoding="utf-8")
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "beliefshift.cli", "prospect",
             "--scenario", str(scenario), "--out", str(fresh)],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        assert main(["prospect", "--scenario", str(scenario), "--out", str(here)]) == 0
        capsys.readouterr()
        assert fresh.read_bytes() == here.read_bytes()
        assert len(fresh.read_text(encoding="utf-8").splitlines()) == 4

    def test_prospect_runs_are_byte_identical(self, tmp_path):
        scenario = tmp_path / "sweep.json"
        scenario.write_text(json.dumps({
            "kind": "prospective",
            "seed": 3,
            "prospective_config": {
                "consensus": {"type": "normal", "mu": 3, "sigma": 1},
                "pioneer": {"type": "normal", "mu": 0, "sigma": 3},
                "weights": [0.0, 0.5, 1.0],
                "ns": [10],
                "sigma": 3.0,
                "replicates": 150,
            },
        }), encoding="utf-8")
        outputs = []
        for run in range(2):
            out = tmp_path / f"curve_{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "beliefshift.cli", "prospect",
                 "--scenario", str(scenario), "--out", str(out)],
                capture_output=True, cwd=str(REPO_ROOT),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "w,n,expected_learning,mc_std_error"
        assert len(lines) == 4

    def test_replicate_paper_runs_are_byte_identical(self, tmp_path, capsys):
        outputs = []
        for run in range(2):
            out = tmp_path / f"report_{run}.csv"
            code = main(["replicate-paper", "--replicates", "400", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == 0
            assert "checks passed" in captured.out
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "check_name,expected,actual,tolerance,passed"
        assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("package", ["beliefshift", "beliefshift.cli"])
def test_every_package_export_is_a_submodule_export(package):
    # Per-layer timing wraps each submodule's __all__, so a name only the
    # package exports would run untimed.
    pkg = importlib.import_module(package)
    listed = set()
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.name.startswith("__"):
            module = importlib.import_module(f"{package}.{info.name}")
            listed.update(getattr(module, "__all__", ()))
    assert set(pkg.__all__) - {"__version__"} - listed == set()

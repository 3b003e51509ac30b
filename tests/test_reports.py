"""Canonical report serialization: stable bytes, no ambient state."""

import json
import math
import random
from enum import Enum, IntEnum

import pytest

from limitlearn import Status, Verdict, canonical_json, make_report
from limitlearn import reports
from limitlearn.cli import COMMANDS, build_parser, resolve
from limitlearn.reports import SCHEMA_VERSION
from limitlearn.suite import run_battery


def to_jsonable(obj):
    """The oracle's copy: package objects as plain JSON-friendly structures."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (frozenset, set)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "as_dict"):
        return to_jsonable(obj.as_dict())
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _canonical_json_oracle(obj) -> str:
    """The two-pass encoder canonical_json replaced: copy, then json's indent path."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _assert_same_bytes(obj):
    assert canonical_json(obj) == _canonical_json_oracle(obj)


def test_to_jsonable_handles_library_shapes():
    assert to_jsonable(Status.PASS_AT_HORIZON) == "PASS_AT_HORIZON"
    assert to_jsonable(frozenset({3, 1})) == [1, 3]
    assert to_jsonable({5, 2}) == [2, 5]
    assert to_jsonable((1, (2, 3))) == [1, [2, 3]]
    assert to_jsonable({2: "b", 1: "a"}) == {"2": "b", "1": "a"}
    assert to_jsonable({"x": None}) == {"x": None}


def test_to_jsonable_uses_as_dict_hook():
    class Thing:
        def as_dict(self):
            return {"v": (1, 2)}

    assert to_jsonable(Thing()) == {"v": [1, 2]}


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        to_jsonable(object())


def test_canonical_json_layout():
    blob = canonical_json({"b": 1, "a": [2, 1]})
    assert blob.endswith("\n")
    assert blob == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'
    # key order in the input must not matter
    assert canonical_json({"a": [2, 1], "b": 1}) == blob


def test_make_report_shape():
    answer = {"answer": frozenset({1})}
    rep = make_report("construct", {"horizon": 5}, answer, {"queries": 9})
    assert set(rep) == {"schema_version", "config", "results", "work"}
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["config"] == {"command": "construct", "params": {"horizon": 5}}
    assert rep["results"] == {"answer": frozenset({1})}
    assert rep["work"] == {"queries": 9}
    with pytest.raises(TypeError, match="work"):
        make_report("suite", {}, {})  # every report carries its work counters
    # reports must stay loadable and re-serializable byte for byte
    blob = canonical_json(rep)
    assert canonical_json(json.loads(blob)) == blob


def test_make_report_keeps_its_inputs():
    params, results, work = {"seed": 0}, {"codes": {2, 1}}, {"queries": 3}
    rep = make_report("suite", params, results, work)
    assert rep["config"]["params"] is params
    assert rep["results"] is results
    assert rep["work"] is work


def test_reports_carry_no_timestamps():
    rep = make_report("suite", {}, {}, {})
    blob = canonical_json(rep)
    for needle in ("time", "date", "stamp"):
        assert needle not in blob


def _random_value(rng: random.Random, depth: int, drawn: list):
    """A random report value; drawn holds its int lists, to reuse at other depths."""
    if drawn and rng.random() < 0.2:
        return rng.choice(drawn)
    kind = rng.randrange(11 if depth else 4)
    if kind == 0:
        return rng.choice([0, 1, -7, 255, 10**20, rng.randrange(10**6)])
    if kind == 1:
        head = rng.choice(["", "a", "\u00e9", 'q"', "k\n", "\\"])
        return head + str(rng.randrange(9))
    if kind == 2:
        return rng.choice([None, True, False])
    if kind == 3:
        return rng.choice([0.5, -0.0, 1e300, float("nan"), float("-inf")])
    if kind == 4:
        ints = [rng.randrange(-3, 50) for _ in range(rng.randrange(6))]
        if ints and rng.random() < 0.3:
            ints[rng.randrange(len(ints))] = rng.choice([True, False])
        drawn.append(ints)
        return ints
    if kind == 5:
        return [_random_value(rng, depth - 1, drawn) for _ in range(rng.randrange(4))]
    if kind == 6:
        items = range(rng.randrange(4))
        return tuple(_random_value(rng, depth - 1, drawn) for _ in items)
    if kind in (7, 8):
        keys = [rng.choice([rng.randrange(5), str(rng.randrange(5))]) for _ in range(4)]
        keys = keys[: rng.randrange(5)]
        return {k: _random_value(rng, depth - 1, drawn) for k in keys}
    if kind == 9:
        pool = [rng.randrange(20) for _ in range(5)]
        if rng.random() < 0.5:
            pool = [str(x) for x in pool]
        members = pool[: rng.randrange(6)]
        return set(members) if rng.random() < 0.5 else frozenset(members)
    return frozenset(
        tuple(rng.randrange(4) for _ in range(rng.randrange(3)))
        for _ in range(rng.randrange(4))
    )


def test_canonical_json_matches_the_oracle_on_random_values():
    rng = random.Random(13)
    for _ in range(3000):
        _assert_same_bytes(_random_value(rng, 4, []))


class _Colour(IntEnum):
    RED = 1
    BLUE = 2


class _Pair(Enum):
    LOW = (0, 1)


class _Count(int):
    def __repr__(self):
        return f"_Count({int(self)})"


class _Name(str):
    pass


class _Thing:
    def as_dict(self):
        return {"v": (1, 2), "s": {3, 1}, "status": Status.FAIL_WITNESSED}


class _Label(str):
    def as_dict(self):
        return {"label": str(self)}


class _Record(dict):
    def as_dict(self):
        return {"record": len(self)}


# One int list object at several depths, and a Verdict pair sharing its
# tail codes the way check_txtfext builds the strict verdict from the loose one.
_SHARED = [3, 1, 4, 1, 5]
_TAIL = [4, 9, 12]
_LOOSE = Verdict(
    Status.FAIL_WITNESSED,
    {"kind": "cardinality", "codes": _TAIL, "allowed": 2},
    {"settle": 5, "horizon": 10, "tail_codes": _TAIL},
)
_STRICT = Verdict(
    _LOOSE.status, _LOOSE.witness, dict(_LOOSE.details, via="vacillation")
)

_EDGE_CORPUS = [
    [True, 1, False, 2],
    [1, True],
    {"flags": [0, False], "set": {True, 2}},
    float("nan"),
    [float("inf"), float("-inf"), -0.0, 1e300, 0.1, 1.5],
    {"x": float("nan"), "y": -0.0},
    "caf\u00e9 \u4e2d \U0001F600",
    'quote " and backslash \\ and slash /',
    "\x00\x1f\n\t\x7f\u2028",
    {"caf\u00e9": "\"", "\n": 1},
    {"a": [], "b": {}, "c": [[], {}, ()], "d": set(), "e": frozenset(), "f": ()},
    [[], [[]], {"k": {}}],
    {},
    [],
    {1: "a", "1": "b"},
    {"1": "b", 1: "a"},
    frozenset({(1, 2), (0, 5), (1,), ()}),
    {frozenset({(2, 3), (1,)}), frozenset()},
    Status.PASS_AT_HORIZON,
    {"status": Status.INCONCLUSIVE, Status.PASS_AT_HORIZON: [Status.FAIL_WITNESSED]},
    _Colour.BLUE,
    [_Colour.RED, 2, _Colour.BLUE],
    {_Colour.RED: _Colour.BLUE},
    {_Colour.RED, _Colour.BLUE},
    _Pair.LOW,
    _Thing(),
    [_Thing(), {"t": _Thing()}],
    [_Label("as_dict before str"), _Record(kept="dict before as_dict")],
    Verdict(Status.FAIL_WITNESSED, {"codes": frozenset({4, 2}), "at": (3, 9)}, {}),
    _Count(7),
    [_Count(3), 4],
    {_Count(2), _Count(1)},
    {_Count(5): _Name("n")},
    _Name("plain"),
    [_Name("b"), _Name("a")],
    {_Name("k"): 1},
    [10**40, -(10**40), 0],
    (1, "a", None, 2.5, True),
    [[[[[1]]]]],
    {"deep": {"er": {"est": [1, [2, {"x": None}]]}}},
    5,
    None,
    True,
    "",
    [_SHARED, {"k": _SHARED, "deeper": [_SHARED]}],
    {"deeper": [[_SHARED]], "k": _SHARED, "list": [7, 8, 9], "tuple": (7, 8, 9)},
    [[7, 8, 9], (7, 8, 9), [[7, 8, 9]], ((7, 8, 9),)],
    # equal to the plain list written first, but not all exact ints
    [[1, 2], [True, 2], [1, 2]],
    [[1, 2], [_Colour.RED, 2]],
    [[1, 2], [_Count(1), 2]],
    {"distinct_outputs": _TAIL, "vacillation": _LOOSE, "strict": _STRICT},
]


@pytest.mark.parametrize("obj", _EDGE_CORPUS, ids=range(len(_EDGE_CORPUS)))
def test_canonical_json_matches_the_oracle_on_edge_cases(obj):
    _assert_same_bytes(obj)


@pytest.mark.parametrize(
    "obj",
    [
        object(),
        [1, object()],
        (2, [object()]),
        {object()},
        frozenset({1, object()}),
        {"k": object()},
        {"a": {"b": [3, {object()}]}},
        {1, "a"},
    ],
    ids=["top", "list", "tuple", "set", "frozenset", "dict", "nested", "unsortable"],
)
def test_canonical_json_raises_the_oracle_type_error(obj):
    with pytest.raises(TypeError) as new:
        canonical_json(obj)
    with pytest.raises(TypeError) as old:
        _canonical_json_oracle(obj)
    assert str(new.value) == str(old.value)


class _Plain(Enum):
    ONE = 1
    TWO = 2


@pytest.mark.parametrize(
    "obj",
    [
        {_Plain.TWO, _Plain.ONE},
        frozenset({(_Plain.TWO, 0), (_Plain.ONE, 5)}),
        {(1, 2), frozenset({3, 0})},
        {frozenset({3}), frozenset({1, 2}), frozenset({2, 9})},
        {_Label("b"), _Label("a")},
        {_Label("a"), "b"},
        {_Thing()},
    ],
    ids=["enums", "enum-tuples", "tuple-and-set", "subsets", "as_dict", "mixed", "one"],
)
def test_set_members_sort_as_the_oracle_sorts(obj):
    # members sort by their report values: a set's own < is subset order
    outcomes = []
    for encode in (canonical_json, _canonical_json_oracle):
        try:
            outcomes.append(encode(obj))
        except TypeError as exc:
            outcomes.append(f"TypeError: {exc}")
    assert outcomes[0] == outcomes[1]


def _cli_report(argv):
    p = resolve(build_parser().parse_args(argv))
    return COMMANDS[argv[0]][1](p)[0]


_REPORT_ARGV = [
    *(
        ["construct", "--learner", learner, "--base-e", str(e), "--horizon", "120"]
        + ["--stage-bound", "100"]
        for learner in ("constant_zero", "length_parity", "fresh_each_step")
        for e in (0, 1, 2)
    ),
    ["learn", "--learner", "gap_parity", "--adversary", "constant_zero"],
    ["check", "--learner", "fresh_each_step", "--adversary", "constant_zero"]
    + ["--i", "*", "--j", "*"],
    ["family", "--adversary", "constant_zero", "--member-n", "13"],
    ["suite", "--seed", "0"],
]


@pytest.mark.parametrize("argv", _REPORT_ARGV, ids=lambda argv: " ".join(argv[:3]))
def test_canonical_json_matches_the_oracle_on_cli_reports(argv):
    _assert_same_bytes(_cli_report(argv))


def test_canonical_json_matches_the_oracle_on_a_raw_battery():
    # run_battery's criteria hold Verdicts, Status members, tuples and sets
    _assert_same_bytes(run_battery(0))


def test_each_int_list_is_formatted_once_per_indent(monkeypatch):
    # the memo is load-bearing: without it this report formats 100,000 ints
    calls = []
    original = reports._int_text

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(reports, "_int_text", counting)
    ints = list(range(1000))
    value = {"one": [ints] * 50, "two": [[ints]] * 50}
    blob = reports.canonical_json(value)
    monkeypatch.undo()
    assert len(calls) == 2000
    assert blob == _canonical_json_oracle(value)


def test_canonical_json_neither_recurses_nor_dumps_containers(monkeypatch):
    # a tracer wraps the module's canonical_json; one call must stay one span
    calls = []
    original = reports.canonical_json
    real_dumps = json.dumps

    def counting(obj):
        calls.append(obj)
        return original(obj)

    def scalar_dumps(obj, **kwargs):
        assert obj is None or isinstance(obj, (bool, int, float)), type(obj)
        assert not kwargs
        return real_dumps(obj)

    monkeypatch.setattr(reports, "canonical_json", counting)
    monkeypatch.setattr(reports.json, "dumps", scalar_dumps)
    value = {"a": [{"b": (1, 2.5)}, {3}], "c": _Thing(), "d": [True, None, math.pi]}
    blob = reports.canonical_json(value)
    monkeypatch.undo()
    assert len(calls) == 1
    assert blob == _canonical_json_oracle(value)


def _outcome(encode, obj) -> str:
    try:
        return encode(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


def _some_bool(rng):
    return rng.choice([True, False])


# Each case holds a value the exact-type dispatch does not write itself
# (an enum, a subclass, a set), so the isinstance chain must run.
_SLOW_CASES = [
    lambda rng: rng.choice(list(Status)),
    lambda rng: [rng.choice(list(_Colour)), rng.randrange(3)],
    lambda rng: _Count(rng.randrange(-5, 300)),
    lambda rng: {_Count(rng.randrange(3)): _Count(9), "2": _some_bool(rng)},
    lambda rng: [_Name(rng.choice("abé")), "b"],
    lambda rng: {"b": None, _Name(rng.choice("ab")): _Count(1)},
    lambda rng: {"on": _some_bool(rng), "off": False, "why": rng.choice(list(Status))},
    lambda rng: [_some_bool(rng), rng.randrange(5), _Colour.RED, None],
    lambda rng: {"1": rng.randrange(9), 1: rng.choice(list(Status)), 0: [True]},
    lambda rng: {rng.randrange(3): {rng.randrange(3)}, (): _some_bool(rng)},
    lambda rng: [[1, n := rng.randrange(9)], [True, n], [1, n], frozenset({n})],
    lambda rng: [[True, n := rng.randrange(9)], [1, n], [n, 1], [n, True], _Count(n)],
    lambda rng: [(n := rng.randrange(5), n + 1), [n, n + 1], {n}, [n, n + 1]],
    lambda rng: [[n := rng.randrange(9), m := rng.randrange(3), n], [n, m + 1, n], {m}],
    lambda rng: {rng.randrange(-9, 300) for _ in range(rng.randrange(6))},
    lambda rng: frozenset(rng.choice("abcé") * rng.randrange(1, 3) for _ in range(4)),
    lambda rng: {rng.choice([True, 2, 0, _Count(4), _Colour.BLUE, 7]) for _ in range(3)},
    lambda rng: {rng.choice([_Name("b"), "a", Status.INCONCLUSIVE, "z"]) for _ in range(3)},
    lambda rng: {rng.randrange(4), rng.choice("ab")},
    lambda rng: {"v": Verdict(Status.FAIL_WITNESSED, {"codes": {3, 1}}, {"ok": True})},
]


def test_slow_path_cases_match_the_oracle(monkeypatch):
    # a seeded catalogue, each case alone or nested, must reach the isinstance
    # chain and give the oracle's bytes or its TypeError
    rng = random.Random(38)
    chain = []

    def counting(obj, types):
        chain.append(types)
        return isinstance(obj, types)

    monkeypatch.setattr(reports, "isinstance", counting, raising=False)
    for _ in range(40):
        for build in _SLOW_CASES:
            value = build(rng)
            if rng.random() < 0.5:
                value = {"at": [rng.randrange(9), value], "n": _some_bool(rng)}
            chain.clear()
            outcome = _outcome(canonical_json, value)
            assert chain, value
            assert outcome == _outcome(_canonical_json_oracle, value), value


def test_fast_path_dumps_only_floats_and_unwraps_each_verdict_once(monkeypatch):
    # exact bools, None, ints and str-keyed dicts are written by the writer
    # itself; json.dumps is left to floats, and a Verdict is unwrapped once
    dumped, unwrapped = [], []
    real_dumps, real_as_dict = json.dumps, Verdict.as_dict

    def dumps(obj, **kwargs):
        dumped.append(obj)
        return real_dumps(obj, **kwargs)

    def as_dict(self):
        unwrapped.append(self)
        return real_as_dict(self)

    verdicts = [
        Verdict(Status.FAIL_WITNESSED, None, {"settle": n, "even": n % 2 == 0, "x": None})
        for n in range(5)
    ]
    value = {
        "flags": [True, False, None, 3, True],
        "nested": {"on": True, "off": False, "none": None, "n": 7, "deep": {"b": False}},
        "ratios": [0.5, 1.5],
        "verdicts": verdicts,
    }
    monkeypatch.setattr(reports.json, "dumps", dumps)
    monkeypatch.setattr(Verdict, "as_dict", as_dict)
    blob = canonical_json(value)
    monkeypatch.undo()
    assert dumped == [0.5, 1.5] and all(type(x) is float for x in dumped)
    assert unwrapped == verdicts and len(unwrapped) == 5
    assert blob == _canonical_json_oracle(value)


def test_int_lists_sharing_length_and_ends_are_each_formatted_once(monkeypatch):
    # two contents under one (indent, length, first, last), and a tuple equal
    # to one of them: 8 ints to format, however often each repeats
    calls = []
    original = reports._int_text

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(reports, "_int_text", counting)
    a, b = [0, 1, 2, 900], [0, 5, 6, 900]
    value = [a, b, list(a), tuple(b), b, tuple(a)]
    blob = reports.canonical_json(value)
    monkeypatch.undo()
    assert sorted(calls) == sorted(a + b)
    assert blob == _canonical_json_oracle(value)

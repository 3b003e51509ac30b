"""Command-line surface: argument handling, exit codes, canonical output."""

import contextlib
import hashlib
import io
import json
import re
import os
import random
import shlex
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest

from limitlearn import canonical_json
from limitlearn.cli import (
    MAX_HORIZON,
    MAX_TABLE_STAGES,
    MAX_TEXT_BYTES,
    PARAMS,
    _DIGEST_ITEMS,
    _text_sha256,
    build_parser,
    main,
    resolve,
)
from limitlearn.construction import MAX_CODE_LENGTHS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_construct_writes_canonical_report(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        ["construct", "--learner", "constant_zero", "--horizon", "30", "--out", str(out)]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["config"]["command"] == "construct"
    assert rep["results"]["stage"] == 30
    assert rep["results"]["chain_ok"] is True
    assert rep["results"]["markers_even"][:4] == [2, 4, 4, 6]
    assert rep["results"]["rows"][0]["value"] == [0]
    assert "work" in rep


def test_construct_output_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["construct", "--learner", "length_parity", "--horizon", "25", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_has_no_method_knob(tmp_path, capsys):
    argv = ["construct", "--learner", "constant_zero", "--horizon", "5"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--method", "brute"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "brute"}))
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'method'" in err[0]


def test_construct_separation_level(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "construct",
            "--learner",
            "length_parity",
            "--horizon",
            "40",
            "--stage-bound",
            "50",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert _load(out)["results"]["separation_level"] == 2


@pytest.mark.parametrize(
    "learner, level",
    [("length_parity", 2), ("constant_zero", 0), ("fresh_each_step", None)],
)
def test_construct_huge_stage_bound_finishes_fast(tmp_path, learner, level):
    # the code-range scan stops once the learner's declared codes have shown
    out = tmp_path / "r.json"
    started = time.monotonic()
    argv = ["construct", "--learner", learner, "--horizon", "50"]
    assert main(argv + ["--stage-bound", "100000000", "--out", str(out)]) == 0
    assert time.monotonic() - started < 5
    assert _load(out)["results"]["separation_level"] == level


def test_construct_stage_bound_past_its_budget_fails_fast(tmp_path, capsys):
    # at horizon 0 row 0 is defined, and fresh_each_step has no finite code
    # set, so a code per length would be registered and compared pairwise
    out = tmp_path / "r.json"
    argv = ["construct", "--learner", "fresh_each_step", "--horizon", "0"]
    started = time.monotonic()
    assert main(argv + ["--stage-bound", "100000000", "--out", str(out)]) == 1
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "error: stage bound 100000000 reads the codes of 100000001 lengths,"
        f" over the budget of {MAX_CODE_LENGTHS}"
    ]


@pytest.mark.parametrize("e", ["0", "1", "2"])
def test_construct_separation_level_without_a_base_row(tmp_path, e):
    # fresh_each_step leaves row 0 undefined, so the level is null, not an error
    out = tmp_path / "r.json"
    argv = ["construct", "--learner", "fresh_each_step", "--base-e", e]
    argv += ["--horizon", "60", "--bound", "30", "--stage-bound", "40"]
    assert main(argv + ["--out", str(out)]) == 0
    assert _load(out)["results"]["separation_level"] is None


def test_construct_refuses_the_two_code_learner():
    # gap_parity has no length profile, so construct does not offer it
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--learner", "gap_parity", "--horizon", "5"])
    assert exc.value.code == 2


def test_learn_on_member_text(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "learn",
            "--learner",
            "gap_parity",
            "--adversary",
            "constant_zero",
            "--variant",
            "plain",
            "--horizon",
            "60",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["config"]["command"] == "learn"
    assert "vacillation" not in rep["results"]
    assert len(rep["results"]["outputs_head"]) == 20


def test_check_pass_exit_zero(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "check",
            "--learner",
            "gap_parity",
            "--adversary",
            "constant_zero",
            "--variant",
            "hat",
            "--horizon",
            "60",
            "--i",
            "*",
            "--j",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["results"]["vacillation"]["status"] == "PASS_AT_HORIZON"
    assert rep["results"]["strict"]["status"] == "PASS_AT_HORIZON"


def test_check_fail_exit_one(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "check",
            "--learner",
            "fresh_each_step",
            "--adversary",
            "constant_zero",
            "--horizon",
            "40",
            "--i",
            "*",
            "--j",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    rep = _load(out)
    assert rep["results"]["vacillation"]["status"] == "FAIL_WITNESSED"


def test_check_requires_both_indices(capsys):
    rc = main(
        [
            "check",
            "--learner",
            "constant_zero",
            "--adversary",
            "constant_zero",
            "--horizon",
            "10",
        ]
    )
    assert rc == 1
    assert "requires both --i and --j" in capsys.readouterr().err


def test_indices_must_come_together(capsys):
    rc = main(
        [
            "learn",
            "--learner",
            "constant_zero",
            "--adversary",
            "constant_zero",
            "--horizon",
            "10",
            "--i",
            "*",
        ]
    )
    assert rc == 1
    assert "must be given together" in capsys.readouterr().err


def test_gap_parity_needs_an_adversary(tmp_path):
    text = tmp_path / "t.json"
    text.write_text("[0, 1, 2, 3, 4]")
    rc = main(
        ["learn", "--learner", "gap_parity", "--text", str(text), "--horizon", "5"]
    )
    assert rc == 1


def test_text_file_input(tmp_path):
    text = tmp_path / "t.json"
    text.write_text("[0, 0, 0, 0, 0, 0]")
    out = tmp_path / "r.json"
    rc = main(
        [
            "learn",
            "--learner",
            "length_parity",
            "--text",
            str(text),
            "--horizon",
            "6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["results"]["outputs_head"] == [1, 2, 1, 2, 1, 2, 1]


def test_text_report_names_its_file(tmp_path):
    """Two files at one path, alike in their first 20 items and in every
    item the trace reads, still give different reports."""
    text, out = tmp_path / "t.json", tmp_path / "r.json"
    argv = ["learn", "--learner", "constant_zero", "--text", str(text)]
    argv += ["--horizon", "20", "--out", str(out)]
    reports = []
    for items in ([0] * 30, [0] * 25 + [1] * 5):
        text.write_text(json.dumps(items))
        assert main(argv) == 0
        rep = _load(out)
        assert rep["results"]["text_items"] == 30
        digest = hashlib.sha256(canonical_json(items).encode()).hexdigest()
        assert rep["results"]["text_sha256"] == digest
        reports.append(rep)
    first, second = reports
    assert first["results"].pop("text_sha256") != second["results"].pop("text_sha256")
    assert first == second


@pytest.mark.parametrize(
    "n", [0, 1, _DIGEST_ITEMS - 1, _DIGEST_ITEMS, _DIGEST_ITEMS + 1]
)
def test_text_digest_hashes_the_canonical_json_in_chunks(n):
    # the chunk seams fall at every multiple of _DIGEST_ITEMS
    items = [(i * 7919) % 100003 for i in range(n)]
    want = hashlib.sha256(canonical_json(items).encode()).hexdigest()
    assert _text_sha256(items) == want


@pytest.mark.parametrize("item", ["-1", "true", "1.0", '"0"'])
@pytest.mark.parametrize("at", [0, 3, 6])
def test_bad_text_item_is_one_error_line_wherever_it_sits(tmp_path, capsys, item, at):
    items = ["0", "1", "2", "3", "4", "5"]
    items.insert(at, item)
    text = tmp_path / "t.json"
    text.write_text(f"[{', '.join(items)}]")
    argv = ["learn", "--learner", "constant_zero", "--text", str(text), "--horizon", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = {"-1": "-1", "true": "True", "1.0": "1.0", '"0"': "'0'"}[item]
    assert captured.err.splitlines() == [
        f"error: --text item must be a natural number, got {shown}"
    ]


def test_text_file_too_short(tmp_path, capsys):
    text = tmp_path / "t.json"
    text.write_text("[0, 0]")
    rc = main(
        ["learn", "--learner", "constant_zero", "--text", str(text), "--horizon", "9"]
    )
    assert rc == 1
    assert "horizon 9" in capsys.readouterr().err


def test_text_file_over_budget_fails_before_it_is_read(tmp_path, capsys, monkeypatch):
    text = tmp_path / "t.json"
    text.write_text("[0, 0, 0, 0, 0, 0, 0, 0]")  # 24 bytes
    argv = ["learn", "--learner", "constant_zero", "--text", str(text), "--horizon", "5"]
    import limitlearn.cli as cli

    monkeypatch.setattr(cli, "MAX_TEXT_BYTES", 23)

    def unread(path):
        raise AssertionError(f"{path} was read")

    with monkeypatch.context() as m:
        m.setattr(cli, "_read_json", unread)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --text file {text} has 24 bytes, over the budget of 23 bytes"
    ]
    # a file of exactly the budget is read as before
    monkeypatch.setattr(cli, "MAX_TEXT_BYTES", 24)
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert _load(tmp_path / "r.json")["results"]["text_items"] == 8


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "--learner", "constant_zero", "--text", "/dev/zero", "--horizon", "200",
          "--i", "*", "--j", "2"], "--text"),
        (["suite", "--config", "/dev/zero"], "--config"),
    ],
)
def test_endless_input_file_is_read_only_to_the_budget(argv, flag, capsys, monkeypatch):
    # a device's size reads 0, so only a bounded read stops it
    import limitlearn.cli as cli

    monkeypatch.setattr(cli, "MAX_TEXT_BYTES", 64)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {flag} file /dev/zero has at least 65 bytes, over the budget of 64 bytes"
    ]


def test_missing_text_source(capsys):
    rc = main(["learn", "--learner", "constant_zero", "--horizon", "5"])
    assert rc == 1
    assert "--text or --adversary" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 15, "bound": 10}))
    out = tmp_path / "r.json"
    rc = main(
        [
            "construct",
            "--learner",
            "constant_zero",
            "--config",
            str(cfg),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["results"]["stage"] == 15
    assert max(rep["results"]["prefix_plain"]) < 10


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 15}))
    out = tmp_path / "r.json"
    rc = main(
        [
            "construct",
            "--learner",
            "constant_zero",
            "--config",
            str(cfg),
            "--horizon",
            "8",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert _load(out)["results"]["stage"] == 8


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(
        ["construct", "--learner", "constant_zero", "--config", str(cfg)]
    )
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--text"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    rc = main(
        ["learn", "--learner", "constant_zero", "--horizon", "5", flag, str(deep)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {deep}: JSON nested too deeply to decode\n"


# Flags that make each subcommand's run valid apart from the input under test.
_REQUIRED = {
    "construct": ["--learner", "constant_zero"],
    "learn": ["--learner", "constant_zero", "--adversary", "constant_zero"],
    "check": ["--learner", "constant_zero", "--adversary", "constant_zero"],
    "family": ["--adversary", "constant_zero"],
    "suite": [],
}
# What the error names when the config key under test is not a natural number.
_FAULTS = {
    "horizen": "takes no config key",
    "learner": "takes no config key",
    "variant": "must be one of",
    "text": "file path",
    "out": "file path",
}


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--horizon", "-5"], None),
        (["--bound", "-4"], None),
        (["--stage-bound", "-3"], None),
        (["--base-e", "-1"], None),
        ([], {"horizon": "abc"}),
        ([], {"horizon": True}),
        ([], {"bound": 2.5}),
        ([], {"stage_bound": -1}),
        (["check", "--i", "*", "--j", "2", "--bound", "-4"], None),
        (["check", "--i", "*", "--j", "2", "--settle", "-4"], None),
        (["learn", "--horizon", "-3"], None),
        (["suite", "--seed", "-1"], None),
        (["learn", "--text", "bools.json", "--horizon", "6"], None),
        (["check"], {"settle": "x", "i": "*", "j": 2}),
        (["check"], {"i": -1, "j": 2}),
        (["suite"], {"seed": "x"}),
        (["family"], {"member_n": None}),
        (["learn"], {"horizen": 15}),
        (["construct"], {"learner": "constant_zero"}),
        (["family"], {"variant": "wide"}),
        (["learn"], {"text": 5}),
        (["family"], {"out": 1}),
        (["learn"], {"text": ""}),
        (["family"], {"out": ""}),
    ],
)
def test_construct_rejects_bad_parameters(
    tmp_path, capsys, monkeypatch, flags, config
):
    cmd = "construct"
    if flags and flags[0] in _REQUIRED:
        cmd, flags = flags[0], flags[1:]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bools.json").write_text("[true, false, true, 1, 2, 3]")
    argv = [cmd] + _REQUIRED[cmd] + flags
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    named = [_FAULTS[key] for key in config or {} if key in _FAULTS]
    assert (named or ["natural number"])[0] in err[0]


@pytest.mark.parametrize(
    "argv, flags, config",
    [
        (
            ["family", "--adversary", "constant_zero"],
            ["--variant", "hat"],
            {"variant": "hat"},
        ),
        (
            ["construct", "--learner", "constant_zero", "--horizon", "5"],
            ["--bound", "10"],
            {"bound": 10},
        ),
        (
            ["check", "--learner", "gap_parity", "--adversary", "constant_zero"],
            ["--horizon", "40", "--i", "1", "--j", "2"],
            {"horizon": 40, "i": 1, "j": 2},
        ),
    ],
)
def test_config_and_flags_give_the_same_bytes(tmp_path, argv, flags, config):
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(argv + flags + ["--out", str(by_flags)])
    assert main(argv + ["--config", str(cfg), "--out", str(by_config)]) == rc
    assert by_flags.read_bytes() == by_config.read_bytes()
    params = _load(by_flags)["config"]["params"]
    assert all(params[key] == value for key, value in config.items())


@pytest.mark.parametrize(
    "argv, flag, values",
    [
        (
            ["check", "--learner", "gap_parity", "--i", "*", "--j", "2"],
            "--adversary",
            ["constant_zero", "fresh_each_step"],
        ),
        (
            ["construct", "--learner", "length_parity"],
            "--stage-bound",
            ["20", "50"],
        ),
    ],
)
def test_reports_record_every_parameter_but_out(tmp_path, argv, flag, values):
    # two runs that differ in one parameter must differ in config.params
    recorded = []
    for value in values:
        out = tmp_path / f"{value}.json"
        main(argv + ["--horizon", "100", flag, value, "--out", str(out)])
        recorded.append(_load(out)["config"]["params"])
    assert recorded[0] != recorded[1]
    key = flag[2:].replace("-", "_")
    assert [params[key] for params in recorded] == [
        int(v) if v.isdigit() else v for v in values
    ]
    assert set(recorded[0]) == set(PARAMS[argv[0]]) - {"out"}


def test_prefix_past_its_budget_fails_fast(capsys):
    started = time.monotonic()
    argv = ["construct", "--learner", "constant_zero", "--horizon", "5"]
    rc = main(argv + ["--bound", "1000000000"])
    assert rc == 1
    assert time.monotonic() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "over the budget of 1000000" in err[0]


def test_family_report(tmp_path):
    out = tmp_path / "r.json"
    rc = main(
        [
            "family",
            "--adversary",
            "constant_zero",
            "--member-n",
            "13",
            "--horizon",
            "40",
            "--bound",
            "20",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rep = _load(out)
    assert rep["results"]["member_code"] != rep["results"]["diagonal_code"]
    elements = rep["results"]["elements_below_bound"]
    assert 2 in elements  # the finite delta from D_13
    assert elements == sorted(elements)


# The reference runs, each exiting 0, with the sha256 of its report (work
# block included). A change to these bytes is a change of behaviour: say so
# and record the new digest. This is the one list of them: CI replays it from
# the installed package under two hash seeds, since string hashing is seeded
# per process and set iteration order may differ between two, while
# criterion 9 replays a run only inside one process.
_PINNED_REPORTS = [
    (
        # criterion 8 draws with randrange, randint and choice; Python
        # promises only random()'s sequence across versions, so a version
        # that changes theirs shows here first
        "suite --seed 0",
        "60fd3d463d0f775606151d02112d572de00ece6027b299d2445410e2167bcaf0",
    ),
    (
        # a marker at two depths
        "construct --learner length_parity --horizon 300 --stage-bound 250",
        "3a2315398197a650874e5ce7fe94c99e52d7877b1daf6f73dd875dfc017b0c0b",
    ),
    (
        # a marker at 299 depths
        "construct --learner constant_zero --horizon 300 --bound 50",
        "bff22410b1ce8c6e161423e26ef70de0a2197d170a132efb4099a7f12c4f87e6",
    ),
    (
        # the largest report
        "check --learner fresh_each_step --adversary constant_zero --i '*' --j '*'",
        "b554b05ab6fd7c7cc5356324db1ffb5ca0185ca0019581434b20f879c479c65e",
    ),
    (
        # the most set-heavy report
        "family --adversary constant_zero --member-n 13",
        "0670a18d1300146fadd200177e42a41b0336c8157de199b86a9754f0ecd9cdc3",
    ),
    (
        # the prefixes hold values past their hash table's size, so CPython
        # iterates them out of order: the sort of a written set shows here
        "construct --learner constant_zero --horizon 300 --base-e 100 --bound 150",
        "c6463aea0a21a5ddd59308cbf6e7dc146432b95c3c3fbdc0e305788f61acbfca",
    ),
    (
        # a canonical text sorts the dict of what a union's parts add, so a
        # hat member's text guards text order against the hash seed
        "learn --learner gap_parity --adversary fresh_each_step --variant hat"
        " --horizon 2000 --i '*' --j 2",
        "742d7318a04aa159a08b9de36849f8d723ce591c6489b4237e75fb648c7d6c33",
    ),
    (
        # a --text report records the file's item count and digest
        "check --learner gap_parity --adversary constant_zero --text text.json"
        " --horizon 15 --i '*' --j 2",
        "d0bf134186d97508b07a546a005bad0ef8eb3e4daa598fd2c4aa681ccd9ea129",
    ),
    (
        # e = 1 asks for a bound above horizon + 1, so a view's bounded read
        # is clamped to the stage and shifted by one
        "family --adversary length_parity --base-e 1 --variant hat --member-n 13"
        " --horizon 2000 --bound 3000",
        "73e04a44f27f57a3fc02f3c8faf7ba00be2d6ee8323a3519924cdfab6f6bc2a4",
    ),
    (
        # the text's least element drops from 5 to 2 at its seventh item, so
        # a text is padded after a late smaller element
        "learn --learner gap_parity --adversary length_parity --base-e 2 --variant plain"
        " --member-n 4000 --horizon 3000 --i '*' --j 2",
        "076a489ae659263b93fd0238836c4bd04870519c07434a62af5e9f3638e8857f",
    ),
    (
        # the least element falls from 40 to 30, 20, 10 and 0, and the gap's
        # parity flips under each: ten diagonal codes, registered as first met
        "check --learner gap_parity --adversary length_parity --text drops.json"
        " --i '*' --j 2",
        "d36bf1c1db9422d00ab5d57b1ba2a0a6567d93f06bc25bf45186f82824887296",
    ),
    (
        # row 0 is undefined from stage 1: its since and changes are pinned
        "construct --learner fresh_each_step --horizon 300 --stage-bound 250",
        "4c64bf840505e6fe5663fe34a71c64fb09dac146a5f7d65a42b37ce3be767343",
    ),
    (
        # finite i: the content clause reads each tail code below the bound,
        # beside the tables' per-stage symmetric differences
        "learn --learner gap_parity --adversary length_parity --variant plain"
        " --horizon 2000 --i 0 --j 2",
        "ab4e0989233ee4254f36202bccb311188a4b98d4c2800f65545f1c576756a35d",
    ),
]

# the drops.json text: five runs of ten from falling starts, then repeats and
# new items above the gap, which change no answer
_DROPS = [x for low in (40, 30, 20, 10, 0) for x in range(low, low + 10)]
_DROPS += list(range(50)) * 2 + list(range(100, 150))


@pytest.mark.parametrize("command, digest", _PINNED_REPORTS)
def test_ci_reports_keep_their_bytes(command, digest, tmp_path, monkeypatch):
    # the --text file sits at a relative path, so its file: label is fixed
    monkeypatch.chdir(tmp_path)
    Path("text.json").write_text("[4, 0, 7, 2, 0, 9, 2, 4, 0, 7, 2, 4, 0, 9, 7]\n")
    Path("drops.json").write_text(json.dumps(_DROPS) + "\n")
    assert main(shlex.split(command) + ["--out", "r.json"]) == 0
    raw = Path("r.json").read_bytes()
    blob = raw.decode("utf-8")
    # an encoder-independent check of canonical_json: json's own encoder,
    # given the parsed report, must give back the report's exact bytes. It
    # names the first differing line, as pytest's diff of two whole reports
    # can take minutes.
    layout = json.dumps(json.loads(blob), sort_keys=True, indent=2) + "\n"
    lines = zip(layout.splitlines(True), blob.splitlines(True))
    assert next(((a, b) for a, b in lines if a != b), None) is None
    assert len(layout) == len(blob)
    assert hashlib.sha256(raw).hexdigest() == digest


def test_suite_exit_codes(monkeypatch, capsys, tmp_path):
    fake = {
        "results": {
            "criteria": [
                {"criterion": 1, "name": "codecs", "status": "PASS"},
                {"criterion": 2, "name": "monotone", "status": "FAIL"},
            ]
        }
    }
    import limitlearn.cli as cli

    monkeypatch.setattr(cli, "run_suite", lambda seed: (fake, False))
    out = tmp_path / "r.json"
    rc = main(["suite", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "criterion 1 codecs: PASS" in err
    assert "criterion 2 monotone: FAIL" in err
    monkeypatch.setattr(cli, "run_suite", lambda seed: (fake, True))
    assert main(["suite", "--out", str(out)]) == 0


@pytest.mark.parametrize("cmd", ["construct", "learn", "check", "family"])
def test_horizon_over_budget_fails_at_once(capsys, cmd):
    argv = [cmd] + _REQUIRED[cmd]
    if cmd == "check":
        argv += ["--i", "*", "--j", "2"]
    started = time.monotonic()
    rc = main(argv + ["--horizon", "1000000000000"])
    assert time.monotonic() - started < 1.0
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: horizon 1000000000000 is over the budget of {MAX_HORIZON} stages"
    ]
    at_budget = build_parser().parse_args(argv + ["--horizon", str(MAX_HORIZON)])
    assert resolve(at_budget)["horizon"] == MAX_HORIZON


def test_check_past_the_table_budget_fails_fast(tmp_path, monkeypatch, capsys):
    # the least element falls at every item, so gap_parity meets one diagonal
    # table per value, and the checkers would read each to the horizon
    monkeypatch.chdir(tmp_path)
    Path("desc.json").write_text(json.dumps(list(range(1999, -1, -1))))
    argv = ["check", "--learner", "gap_parity", "--adversary", "constant_zero"]
    argv += ["--text", "desc.json", "--horizon", "2000", "--i", "*", "--j", "*"]
    started = time.monotonic()
    assert main(argv + ["--out", "r.json"]) == 1
    assert time.monotonic() - started < 2.0
    captured = capsys.readouterr()
    assert captured.out == "" and not Path("r.json").exists()
    assert captured.err.splitlines() == [
        "error: the checkers would read 2000 stage tables to horizon 2000,"
        f" over the budget of {MAX_TABLE_STAGES} table stages"
    ]
    # learn without --i/--j runs no checker, so it has no table budget
    assert main(["learn"] + argv[1:-4] + ["--out", "r.json"]) == 0


def test_table_budget_counts_tables_times_horizon(tmp_path, monkeypatch, capsys):
    import limitlearn.cli as cli

    monkeypatch.setattr(cli, "MAX_TABLE_STAGES", 100)
    monkeypatch.chdir(tmp_path)
    argv = ["check", "--learner", "gap_parity", "--adversary", "constant_zero"]
    argv += ["--text", "desc.json", "--i", "*", "--j", "*"]
    # ten falling values meet ten tables: 10 x 10 is at the budget
    Path("desc.json").write_text(json.dumps(list(range(9, -1, -1))))
    main(argv + ["--horizon", "10"])
    assert json.loads(capsys.readouterr().out)["results"]["text_items"] == 10
    Path("desc.json").write_text(json.dumps(list(range(10, -1, -1))))
    assert main(argv + ["--horizon", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the checkers would read 11 stage tables to horizon 11,"
        " over the budget of 100 table stages"
    ]


def test_stdout_emission(capsys):
    rc = main(["construct", "--learner", "constant_zero", "--horizon", "6"])
    assert rc == 0
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["results"]["stage"] == 6
    assert captured.out.endswith("\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["construct", "--learner", "constant_zero", "--horizon", "30000"], "a/b"),
        (["suite"], "."),
    ],
)
def test_bad_out_path_fails_before_the_run(tmp_path, monkeypatch, capsys, argv, out):
    import limitlearn.cli as cli

    def never(p):
        raise AssertionError("the run started")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.COMMANDS, argv[0], ("run", never))
    assert main(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --out {out!r} must name a file in an existing directory"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["text", "out", "config"])
def test_empty_path_flags_are_refused(tmp_path, monkeypatch, capsys, name):
    # an empty path is no path, not "none given": that would build the text
    # from the adversary, print the report to stdout or skip the config
    monkeypatch.chdir(tmp_path)
    argv = ["learn", *_REQUIRED["learn"], "--horizon", "5", f"--{name}", ""]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {name} must be a file path, got ''"]
    assert list(tmp_path.iterdir()) == []


# The boundary sweep's corpus: values each kind of parameter must refuse,
# given in a --config file, and the flag texts argparse passes on to the check.
_SWEEP_CONFIG = {
    "natural": [-1, -12, 2.5, True, False, "3", "", [], {}],
    "choice": ["wide", "", 1, True, []],
    "path": ["", 5, True, [], {}],
    "ij": [-1, 2.5, True, "x", "", []],
}
_SWEEP_FLAGS = {"natural": ["-1", "-12"], "path": [""], "ij": ["-1", "x", "**"]}
_SWEEP_KINDS = {
    "base_e": "natural", "member_n": "natural", "horizon": "natural",
    "settle": "natural", "bound": "natural", "stage_bound": "natural",
    "adversary": "choice", "variant": "choice",
    "text": "path", "out": "path", "i": "ij", "j": "ij",
}
# --text contents no run at horizon 3 may accept.
_SWEEP_TEXTS = [
    b"[0, 1, true]", b"[0, -3, 2]", b"[0, 1.5, 2]", b'[0, "7", 2]', b"[[1], 0, 2]",
    b"[0, null, 1]", b'{"items": [0, 1, 2]}', b"12", b"[0, 1,", b"", b"\xff\xfe[0]",
    b"[" * 100_000, b"[0, 1]",
]


def _sweep_cases(rng):
    """Seeded draws of one bad value each, plus the fixed corpus of files."""
    cases = []
    for _ in range(150):
        cmd = rng.choice(["construct", "learn", "check", "family"])
        given = _REQUIRED[cmd][::2]  # flags win, so leave out what they set
        name = rng.choice([n for n in PARAMS[cmd] if n in _SWEEP_KINDS
                           and f"--{n}" not in given])
        kind = _SWEEP_KINDS[name]
        flags = _SWEEP_FLAGS.get(kind, [])
        if name == "horizon":
            flags = flags + [str(MAX_HORIZON + 1)]
        if flags and rng.random() < 0.5:
            flag = "--" + name.replace("_", "-")
            cases.append(([cmd, flag, rng.choice(flags)], None))
        else:
            cases.append(([cmd], {name: rng.choice(_SWEEP_CONFIG[kind])}))
    cases.append((["suite", "--seed", "-1"], None))
    cases.append((["suite"], {"seed": "0"}))
    cases.append((["family"], {"adversary": "constant_zero"}))  # a required flag
    for config in (b"[1, 2]", b"7", b"{", b"\xff", b"[" * 100_000):
        cases.append((["construct"], config))
    return cases


def test_seeded_boundary_sweep_is_one_error_line_each(tmp_path, monkeypatch, capsys):
    # every case exits 1 with exactly one "error:" line on stderr, nothing on
    # stdout, and no traceback, however the bad value arrived
    monkeypatch.chdir(tmp_path)
    huge = tmp_path / "huge.json"  # a valid JSON object over the byte budget
    huge.write_bytes(b"{}" + b" " * MAX_TEXT_BYTES)
    cases = _sweep_cases(random.Random(20261019))
    cases.append((["family", "--config", str(huge)], None))
    cases.append((["learn", "--text", str(huge), "--horizon", "3"], None))
    cases.append((["learn", "--text", str(tmp_path / "missing.json")], None))
    cases.append((["learn", "--config", str(tmp_path / "missing.json")], None))
    for n, blob in enumerate(_SWEEP_TEXTS):
        (tmp_path / f"t{n}.json").write_bytes(blob)
        cases.append((["learn", "--text", f"t{n}.json", "--horizon", "3"], None))
        cases.append((["check", "--text", f"t{n}.json", "--horizon", "3",
                       "--i", "1", "--j", "2"], None))
    started = time.monotonic()
    for argv, config in cases:
        cmd, flags = argv[0], argv[1:]
        argv = [cmd, *_REQUIRED[cmd], *flags]
        if config is not None:
            if not isinstance(config, bytes):
                config = json.dumps(config).encode()
            (tmp_path / "cfg.json").write_bytes(config)
            argv += ["--config", "cfg.json"]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = ("usage", exc.code)
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert (rc, captured.out) == (1, ""), (argv, config)
        assert len(err) == 1 and err[0].startswith("error: "), (argv, config, err)
        assert "Traceback" not in captured.err, (argv, config)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["cfg.json", "huge.json", *(f"t{n}.json" for n in range(len(_SWEEP_TEXTS)))]
    )
    assert time.monotonic() - started < 2


def test_python_m_runs_the_console_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = {
        "module": ["-m", "limitlearn"],
        "script": ["-c", "import sys, limitlearn.cli as c; sys.exit(c.main())"],
    }
    codes = {}
    for name, how in runs.items():
        argv = [sys.executable, *how, "suite", "--seed", "0", "--out", f"{name}.json"]
        run = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)
        codes[name] = run.returncode
    assert codes == {"module": 0, "script": 0}
    module, script = tmp_path / "module.json", tmp_path / "script.json"
    assert module.read_bytes() == script.read_bytes()


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    import limitlearn.cli as cli

    def exhaust(p):
        raise MemoryError

    monkeypatch.setitem(cli.COMMANDS, "construct", ("run", exhaust))
    rc = main(["construct", "--learner", "constant_zero", "--horizon", "6"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory"]


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text("utf-8"), re.S)


def test_readme_commands_exit_as_documented(tmp_path):
    lines = [
        line
        for block in _readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("limitlearn ")
    ]
    assert len(lines) == 7
    for n, line in enumerate(lines):
        want = 1 if re.search(r"#.*\bexits 1\b", line) else 0
        out = tmp_path / f"{n}.json"
        argv = shlex.split(line, comments=True)[1:] + ["--out", str(out)]
        assert main(argv) == want, line
        # a failed verdict still writes its report
        assert json.loads(out.read_text("utf-8"))["config"]["command"] == argv[0], line


def test_readme_library_prints_what_its_comments_say():
    (block,) = _readme_blocks("python")
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    prints = [
        n for n, line in enumerate(block.splitlines(), 1) if line.startswith("print(")
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    outputs = printed.getvalue().splitlines()
    assert len(outputs) == len(prints)
    checked = [(out, comments[n]) for n, out in zip(prints, outputs) if n in comments]
    assert len(checked) == 2
    for out, comment in checked:
        assert out == comment

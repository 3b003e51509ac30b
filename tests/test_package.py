"""The package surface: what `limitlearn` exports, and what it imports."""

import ast
import re
import sys
from pathlib import Path

import limitlearn
from limitlearn import Enumerator, ProfiledLearner, Registry, encodings, suite

SOURCES = sorted(Path(limitlearn.__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(limitlearn.__all__) == len(set(limitlearn.__all__))
    for name in limitlearn.__all__:
        assert hasattr(limitlearn, name), name


def test_removed_faces_stay_removed():
    # each was called only by the tests; the code behind it stays
    # (frozenset, _arrivals, _codes, the criteria's own arguments)
    for owner, name in (
        (limitlearn, "content"),
        (encodings, "content"),
        (limitlearn, "SuiteContext"),
        (suite, "SuiteContext"),
        (Enumerator, "arrivals"),
        (ProfiledLearner, "length_codes"),
        (Registry, "below"),
        (Registry, "sym_diff_below"),
    ):
        assert not hasattr(owner, name), (owner, name)
        assert name not in limitlearn.__all__, name


def test_every_class_attribute_the_readme_names_resolves():
    # `Class.attr` or `Class.attr(args)`: the class is exported and has attr
    named = set(re.findall(r"`([A-Z]\w*)\.(\w+)[`(]", README.read_text(encoding="utf-8")))
    assert len(named) >= 7, sorted(named)
    for owner, name in sorted(named):
        assert owner in limitlearn.__all__, owner
        assert hasattr(getattr(limitlearn, owner), name), (owner, name)


def test_the_package_imports_only_itself_and_the_standard_library():
    assert len(SOURCES) >= 10
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, (path.name, node.lineno, root)

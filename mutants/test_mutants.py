"""Self-check of the mutant runner.

    python3 -m pytest -q mutants

Checks that every mutant of catalog.py is killed by its tests, that those
tests pass unmutated, and that the runner reports a mutant that survives,
a mutant whose old text no longer matches, and a mutant that breaks the
import of the package as killed.
"""

import pytest

import mutate
from catalog import MUTANTS


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    dest = tmp_path_factory.mktemp("tree")
    mutate.copy_tree(dest)
    return dest


def test_records_are_whole_and_named_once():
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert set(m) == {"name", "file", "old", "new", "tests"}, m["name"]
        assert m["old"] != m["new"] and m["tests"], m["name"]


def test_named_tests_pass_unmutated(tree):
    assert mutate.check_clean(tree, MUTANTS) is None


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_mutant_is_killed(tree, mutant):
    path = tree / mutant["file"]
    before = path.read_text(encoding="utf-8")
    assert mutate.run_mutant(tree, mutant) == "killed"
    assert path.read_text(encoding="utf-8") == before


def test_a_mutant_that_changes_nothing_survives(tmp_path):
    mutate.copy_tree(tmp_path)
    path = tmp_path / MUTANTS[0]["file"]
    with path.open("a", encoding="utf-8") as out:
        out.write("# a comment for the runner's self-check\n")
    harmless = dict(MUTANTS[0], old="# a comment for the runner's",
                    new="# another comment for the runner's")
    assert mutate.run_mutant(tmp_path, harmless).startswith("survived: ")


def test_old_text_that_no_longer_matches_is_stale(tree):
    moved = dict(MUTANTS[0], old="text that is in no file")
    assert mutate.run_mutant(tree, moved) == (
        f"stale: old text found 0 times in {moved['file']}")


def test_a_mutant_that_breaks_collection_is_killed(tree):
    broken = dict(MUTANTS[0], old="from .report import Report\n",
                  new="from .report import Report,\n")
    assert mutate.run_mutant(tree, broken) == "killed"

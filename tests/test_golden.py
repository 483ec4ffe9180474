"""The golden job's manifest comparison, on hand-made manifests."""

import pytest

from golden import identity_problems

BASE = "aa  gen/grids.csv\nbb  train/model.json\ncc  train/stdout\n"


def test_identical_manifests_pass_with_no_exceptions():
    assert identity_problems(BASE, BASE, "") == []


@pytest.mark.parametrize("head, path", [
    (BASE.replace("bb", "b2"), "train/model.json"),      # changed
    (BASE + "dd  train/extra.csv\n", "train/extra.csv"),  # appeared
    (BASE.replace("cc  train/stdout\n", ""), "train/stdout"),  # went away
], ids=["changed", "added", "removed"])
def test_an_unlisted_change_fails_and_a_listed_one_passes(head, path):
    assert identity_problems(BASE, head, "") == [f"{path}: changed, but not listed"]
    assert identity_problems(BASE, head, f"{path}\tthe reason\n\n") == []


def test_a_listed_path_must_change():
    assert identity_problems(BASE, BASE, "train/model.json\tretrained\n") == [
        "train/model.json: listed, but unchanged"]


@pytest.mark.parametrize("line", ["train/model.json", "train/model.json\t ",
                                  "\tretrained"])
def test_an_exception_needs_a_path_and_a_reason(line):
    head = BASE.replace("bb", "b2")
    assert identity_problems(BASE, head, line) == [
        "exceptions line 1: expected path<TAB>reason",
        "train/model.json: changed, but not listed"]

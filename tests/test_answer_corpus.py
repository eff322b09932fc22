from __future__ import annotations

import json

import pytest

from rignac import cli
from rignac.stable_cut import Answers

from answer_corpus import DATA, corpus_lines, corpus_runs, differences


def test_answers_match_the_pinned_corpus():
    diff = differences(DATA.read_text().splitlines(), corpus_lines())
    assert not diff, diff[:5]


def test_differences_name_each_changed_added_and_missing_run():
    want = ["rank\ta\t0\tx", "rank\tb\t0\ty", "nac count\ta\t0\tz"]
    assert differences(want, want) == []
    got = ["rank\ta\t3\tw", "nac count\ta\t0\tz", "nac list\ta\t0\tv"]
    assert differences(want, got) == [
        "changed: rank on a: exit 0 -> 3",
        "added: nac list\ta\t0\tv",
        "missing: rank\tb\t0\ty",
    ]
    assert differences(want, want[::-1]) == ["same runs in a different order"]


def test_corpus_reaches_every_exit_code_of_its_commands():
    runs = corpus_runs()
    # every mode of stable-cut counts as stable-cut
    codes = {(command.split(" --")[0], code) for command, _, code, _ in runs}
    assert {("stable-cut", c) for c in range(4)} | {("nac construct", c) for c in range(4)} <= codes
    methods = {json.loads(out)["method"] for command, _, _, out in runs if command.startswith("stable-cut") and out}
    assert methods == {"gsc", "neighbourhood", "algorithm1", "exhaustive", "skipped"}


def test_two_catalog_workers_answer_as_one():
    answers = {command: (code, out) for command, _, code, out in corpus_runs() if command.startswith("catalog")}
    assert answers["catalog --n 6 --histogram --threads 2"] == answers["catalog --n 6 --histogram"]


# Mutation checks: each planted fault changes an answer a user sees, and a
# rebuild of the corpus must name a run that it changed.


def rename_method(monkeypatch) -> None:
    real = Answers.stable_cut.func

    def renamed(self):
        cut, method = real(self)
        return cut, method.replace("neighbourhood", "neighborhood")

    monkeypatch.setattr(Answers, "stable_cut", property(renamed))


def reverse_cut(monkeypatch) -> None:
    real = cli._stable_cut_payload

    def reversed_payload(*args):
        payload = real(*args)
        if payload["cut"]:
            payload["cut"].reverse()
        return payload

    monkeypatch.setattr(cli, "_stable_cut_payload", reversed_payload)


def refuse_no_cut(monkeypatch) -> None:
    monkeypatch.setattr(cli, "EXIT_NEGATIVE", cli.EXIT_PRECONDITION)


@pytest.mark.parametrize(
    "plant, want",
    [
        (rename_method, "changed: stable-cut on "),
        (reverse_cut, "changed: stable-cut --separate "),
        (refuse_no_cut, "changed: stable-cut on two-tree:0:3: exit 1 -> 3"),
    ],
    ids=["renamed-method", "reversed-cut", "no-cut-exit-code"],
)
def test_corpus_catches_a_planted_fault(monkeypatch, plant, want):
    plant(monkeypatch)
    corpus_runs.cache_clear()
    try:
        diff = differences(DATA.read_text().splitlines(), corpus_lines())
    finally:
        corpus_runs.cache_clear()  # the faulty runs must not outlive the test
    assert any(line.startswith(want) for line in diff), diff[:5]

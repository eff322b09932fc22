from __future__ import annotations

import json

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

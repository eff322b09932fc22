from __future__ import annotations

from answer_corpus import DATA, corpus_lines


def test_answers_match_the_pinned_corpus():
    want = DATA.read_text().splitlines()
    got = corpus_lines()
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert not changed and len(got) == len(want), changed[:5]


def test_corpus_reaches_every_exit_code_of_its_commands():
    codes = {(line.split("\t")[0], line.split("\t")[2]) for line in DATA.read_text().splitlines()}
    assert {("stable-cut", c) for c in "013"} | {("nac construct", c) for c in "013"} <= codes

"""Corpus parsing, import ordering, splitting, and theorem serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import COMMIT, URL, corpus_of, pfile, premise, premise_by_key, tactic, theorem
from proverloop.corpus import (
    dump_theorems,
    load_theorems,
    parse_corpus,
    random_split,
    serialize_corpus,
    tactic_from_json,
    tactic_to_json,
    topological_order,
)
from proverloop.errors import CorruptDocument


def file_line(path, imports=(), names=("x",)):
    return json.dumps({
        "path": path,
        "imports": list(imports),
        "premises": [
            {"full_name": n, "code": f"Holds {n}", "start": [3 * i + 1, 1],
             "end": [3 * i + 2, 1], "kind": "definition"}
            for i, n in enumerate(names)
        ],
    })


class TestParseCorpus:
    def test_empty_input(self):
        corpus = parse_corpus("")
        assert len(corpus.files) == 0
        assert corpus.all_premises() == []

    def test_single_file_two_premises(self):
        corpus = parse_corpus(file_line("lib/a.lean", names=("a.x", "a.y")) + "\n")
        assert len(corpus.files) == 1
        assert len(corpus.all_premises()) == 2
        assert premise_by_key(corpus, "lib/a.lean::a.x").statement == "Holds a.x"

    def test_import_cycle(self):
        text = "\n".join([
            file_line("a.lean", imports=["b.lean"]),
            file_line("b.lean", imports=["a.lean"], names=("b.x",)),
        ])
        with pytest.raises(CorruptDocument, match="^import cycle among ") as exc:
            parse_corpus(text)
        assert "a.lean" in str(exc.value) and "b.lean" in str(exc.value)

    def test_invalid_json_reports_line_number(self):
        text = file_line("a.lean") + "\n{not json\n"
        with pytest.raises(CorruptDocument, match=r"^line 2: premise file is not valid JSON: "):
            parse_corpus(text)

    def test_duplicate_path(self):
        text = file_line("a.lean") + "\n" + file_line("a.lean", names=("y",))
        with pytest.raises(CorruptDocument, match=r"^line 2: duplicate file path 'a\.lean'$"):
            parse_corpus(text)

    def test_unknown_import(self):
        with pytest.raises(CorruptDocument, match="imports unknown file 'missing.lean'"):
            parse_corpus(file_line("a.lean", imports=["missing.lean"]))

    def test_self_import_rejected(self):
        with pytest.raises(CorruptDocument, match="^line 1: file imports itself$"):
            parse_corpus(file_line("a.lean", imports=["a.lean"]))

    def test_duplicate_premise_name_rejected(self):
        with pytest.raises(CorruptDocument, match="^line 1: duplicate premise name 'x'$"):
            parse_corpus(file_line("a.lean", names=("x", "x")))

    def test_zero_based_position_rejected(self):
        doc = json.loads(file_line("a.lean"))
        doc["premises"][0]["start"] = [0, 1]
        with pytest.raises(CorruptDocument, match="^line 1: premise field 'start' must be "):
            parse_corpus(json.dumps(doc))

    def test_start_after_end_rejected(self):
        doc = json.loads(file_line("a.lean"))
        doc["premises"][0]["start"] = [9, 1]
        doc["premises"][0]["end"] = [2, 1]
        with pytest.raises(CorruptDocument,
                           match="^line 1: premise start must not follow its end$"):
            parse_corpus(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        doc = json.loads(file_line("a.lean"))
        doc["premises"][0]["kind"] = "axiomish"
        with pytest.raises(CorruptDocument, match="^line 1: kind must be one of "):
            parse_corpus(json.dumps(doc))

    def test_blank_lines_skipped(self):
        corpus = parse_corpus("\n" + file_line("a.lean") + "\n\n")
        assert corpus.paths == ["a.lean"]


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        text = "\n".join([
            file_line("base.lean", names=("base.x", "base.y")),
            file_line("mid.lean", imports=["base.lean"], names=("mid.z",)),
            file_line("top.lean", imports=["mid.lean", "base.lean"], names=("top.w",)),
        ]) + "\n"
        corpus = parse_corpus(text)
        out = serialize_corpus(corpus)
        assert parse_corpus(out).files == corpus.files
        assert serialize_corpus(parse_corpus(out)) == out

    def test_empty_corpus_serializes_to_empty(self):
        assert serialize_corpus(parse_corpus("")) == ""


class TestTopologicalOrder:
    def test_single_edge(self):
        files = [pfile("a.lean", imports=["b.lean"]), pfile("b.lean")]
        assert topological_order(files) == ["b.lean", "a.lean"]

    def test_independent_files_keep_input_order(self):
        files = [pfile("a.lean"), pfile("b.lean")]
        assert topological_order(files) == ["a.lean", "b.lean"]

    def test_chain(self):
        files = [
            pfile("a.lean", imports=["b.lean"]),
            pfile("b.lean", imports=["c.lean"]),
            pfile("c.lean"),
        ]
        assert topological_order(files) == ["c.lean", "b.lean", "a.lean"]

    def test_every_import_points_backward_on_random_dags(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            label = [f"f{i}.lean" for i in rng.permutation(n)]
            files = []
            for i in range(n):
                # import only files with a smaller hidden rank: acyclic
                targets = [label[j] for j in range(i) if rng.random() < 0.4]
                files.append(pfile(label[i], imports=targets))
            shuffled = [files[i] for i in rng.permutation(n)]
            order = topological_order(shuffled)
            position = {p: i for i, p in enumerate(order)}
            assert sorted(order) == sorted(label)
            for f in shuffled:
                for target in f.imports:
                    assert position[target] < position[f.path]


class TestRandomSplit:
    def test_hundred_theorems_split_96_2_2(self):
        thms = [theorem(f"t{i}") for i in range(100)]
        split = random_split(thms, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (96, 2, 2)

    def test_ten_theorems_split_8_1_1(self):
        thms = [theorem(f"t{i}") for i in range(10)]
        split = random_split(thms, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)

    def test_two_theorems_is_too_few(self):
        with pytest.raises(CorruptDocument, match="^need at least 3 theorems to split, got 2$"):
            random_split([theorem("t0"), theorem("t1")], seed=0)

    def test_same_seed_is_bit_identical(self):
        thms = [theorem(f"t{i}") for i in range(20)]
        a = random_split(thms, seed=3)
        b = random_split(thms, seed=3)
        assert [t.key for t in a.train] == [t.key for t in b.train]
        assert [t.key for t in a.val] == [t.key for t in b.val]
        assert [t.key for t in a.test] == [t.key for t in b.test]

    def test_different_seeds_preserve_sizes_and_membership(self):
        thms = [theorem(f"t{i}") for i in range(30)]
        splits = [random_split(thms, seed=s) for s in range(6)]
        whole = sorted(t.key for t in thms)
        memberships = set()
        for s in splits:
            assert (len(s.train), len(s.val), len(s.test)) == (28, 1, 1)
            assert sorted(t.key for part in (s.train, s.val, s.test) for t in part) == whole
            memberships.add(tuple(sorted(t.key for t in s.val + s.test)))
        assert len(memberships) > 1  # seeds actually move theorems around

    def test_splits_are_disjoint(self):
        thms = [theorem(f"t{i}") for i in range(17)]
        split = random_split(thms, seed=1, val_frac=0.2, test_frac=0.2)
        seen = [t.key for part in (split.train, split.val, split.test) for t in part]
        assert len(seen) == len(set(seen)) == 17


class TestTheoremSerialization:
    def test_round_trip(self):
        thms = [
            theorem("a.one", tactics=(tactic("a.x"), tactic())),
            theorem("a.two", status="sorry_unproven"),
            theorem("a.three", status="sorry_proven", proof=("apply a.x", "rfl")),
        ]
        assert load_theorems(dump_theorems(thms)) == thms

    def test_annotation_must_contain_each_referenced_name(self):
        doc = tactic_to_json(tactic("a.x"))
        doc["annotated_tactic"] = ["apply something else", ["a.x"]]
        with pytest.raises(CorruptDocument, match="^referenced premise 'a.x' does not appear "):
            tactic_from_json(doc)

    def test_annotated_wire_shape_is_text_plus_names(self):
        doc = tactic_to_json(tactic("a.x"))
        assert doc["annotated_tactic"] == ["apply <a>a.x</a>", ["a.x"]]

    def test_unproven_theorem_with_tactics_rejected(self):
        doc = json.loads(dump_theorems([theorem("a.one", tactics=(tactic(),))]))
        doc[0]["status"] = "sorry_unproven"
        with pytest.raises(CorruptDocument,
                           match="^an unproven theorem cannot carry traced tactics$"):
            load_theorems(json.dumps(doc))

    def test_unknown_status_rejected(self):
        doc = json.loads(dump_theorems([theorem("a.one")]))
        doc[0]["status"] = "half-proven"
        with pytest.raises(CorruptDocument, match="^unknown status 'half-proven'$"):
            load_theorems(json.dumps(doc))


class TestIdentitiesAndLookup:
    def test_premise_key_and_text(self):
        p = premise("a.x", path="lib/a.lean", statement="1 + 1 = 2")
        assert p.key == "lib/a.lean::a.x"
        assert p.text == "a.x : 1 + 1 = 2"

    def test_reading_the_premise_key_keeps_identity(self):
        p = premise("a.x", path="lib/a.lean")
        q = premise("a.x", path="lib/a.lean")
        assert p.key == "lib/a.lean::a.x"
        assert p == q and hash(p) == hash(q)
        assert {p: 1}[q] == 1
        moved = replace(p, full_name="a.y")
        assert moved.key == "lib/a.lean::a.y" and moved != p

    def test_theorem_key_includes_statement(self):
        a = theorem("same.name", statement="P")
        b = theorem("same.name", statement="Q")
        assert a.key != b.key
        assert a.key_str == b.key_str

    def test_name_lookup_prefers_earliest_file_in_import_order(self):
        base = pfile("base.lean", premises=(premise("shared.x", path="base.lean"),))
        top = pfile("top.lean", imports=("base.lean",),
                    premises=(premise("shared.x", path="top.lean"),))
        corpus = corpus_of(top, base)
        assert corpus.premise_by_name("shared.x").file_path == "base.lean"

    def test_theorem_metadata_round_trip_keeps_url_and_commit(self):
        thms = load_theorems(dump_theorems([theorem("a.one")]))
        assert thms[0].url == URL and thms[0].commit == COMMIT

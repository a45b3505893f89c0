"""Corpus parsing, import ordering, splitting, and theorem serialization."""

import json
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    COMMIT,
    URL,
    corpus_of,
    pfile,
    premise,
    premise_by_key,
    premise_file_by_field,
    tactic,
    tactic_by_field,
    theorem,
    theorem_by_field,
)
from proverloop import corpus as corpus_module
from proverloop import database, retriever, search, storage
from proverloop.corpus import (
    Premise,
    dump_theorems,
    load_theorems,
    parse_corpus,
    premise_file_from_json,
    premise_file_to_json,
    premise_key,
    random_split,
    serialize_corpus,
    tactic_from_json,
    tactic_to_json,
    theorem_from_json,
    theorem_to_json,
    topological_order,
)
from proverloop.errors import CorruptDocument
from proverloop.fixtures import write_bundled
from proverloop.pipeline import load_repo_fixture


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


_ANY_TEXT = st.text(st.characters() | st.sampled_from("\u2028\u2029\x85\r\n"), max_size=8)


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(_ANY_TEXT.filter(bool), _ANY_TEXT), min_size=1, max_size=3,
                    unique_by=lambda entry: entry[0]))
    @example([("a.x", "P \u2028 Q"), ("a.\u2029", "\x85")])
    def test_any_premise_name_and_statement_round_trip(self, entries):
        """dump_json writes U+0085, U+2028 and U+2029 raw inside strings, so a
        corpus line must end at "\\n" only."""
        corpus = corpus_of(
            pfile("lib/a.lean", premises=tuple(premise(n, statement=s) for n, s in entries)),
            pfile("lib/b.lean", imports=("lib/a.lean",), names=("b.x",)))
        assert parse_corpus(serialize_corpus(corpus)) == corpus


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


def _premise_file_doc(**fields):
    doc = premise_file_to_json(pfile("lib/a.lean", names=("a.x", "a.y")))
    doc["premises"][1].update(fields)
    return doc


def _theorem_doc(**fields):
    return {**theorem_to_json(theorem("t", tactics=(tactic("a.x"),))), **fields}


POSITION_MUST = "must be a [line, col] pair of ints >= 1, got"


class TestOnePassReaders:
    """Each reader checks a record's shape in one pass and reads a failing
    record field by field; the message is the field-by-field oracle's."""

    @pytest.mark.parametrize("read, oracle, doc, message", [
        pytest.param(premise_file_from_json, premise_file_by_field,
                     _premise_file_doc(start=[True, 1]),
                     f"premise field 'start' {POSITION_MUST} [True, 1]", id="premise-bool-line"),
        pytest.param(theorem_from_json, theorem_by_field, _theorem_doc(end=[60, False]),
                     f"theorem field 'end' {POSITION_MUST} [60, False]", id="theorem-bool-col"),
        pytest.param(premise_file_from_json, premise_file_by_field, _premise_file_doc(end=[0, 1]),
                     f"premise field 'end' {POSITION_MUST} [0, 1]", id="premise-zero-line"),
        pytest.param(theorem_from_json, theorem_by_field, _theorem_doc(start=[50, 0]),
                     f"theorem field 'start' {POSITION_MUST} [50, 0]", id="theorem-zero-col"),
        pytest.param(premise_file_from_json, premise_file_by_field,
                     _premise_file_doc(start=[9, 1]), "premise start must not follow its end",
                     id="premise-start-after-end"),
        pytest.param(theorem_from_json, theorem_by_field, _theorem_doc(start=[61, 1]),
                     "theorem start must not follow its end", id="theorem-start-after-end"),
        pytest.param(premise_file_from_json, premise_file_by_field,
                     _premise_file_doc(full_name="a.x"), "duplicate premise name 'a.x'",
                     id="duplicate-premise-name"),
        pytest.param(premise_file_from_json, premise_file_by_field,
                     _premise_file_doc(kind="lemma"),
                     "kind must be one of ('definition', 'theorem-like')", id="unknown-kind"),
        pytest.param(theorem_from_json, theorem_by_field, _theorem_doc(status="done"),
                     "unknown status 'done'", id="unknown-status"),
        pytest.param(tactic_from_json, tactic_by_field,
                     {**tactic_to_json(tactic("a.x")),
                      "annotated_tactic": ["apply <a>a.x</a>", ["a.x", "b.y"]]},
                     "referenced premise 'b.y' does not appear in the annotated tactic",
                     id="name-missing-from-annotation"),
        pytest.param(theorem_from_json, theorem_by_field, _theorem_doc(status="sorry_proven"),
                     "a proved sorry must carry its proof", id="sorry-proven-without-proof"),
        pytest.param(theorem_from_json, theorem_by_field,
                     _theorem_doc(status="sorry_proven", proof=None),
                     "theorem field 'proof' must be a list of strings, got None",
                     id="sorry-proven-null-proof"),
    ])
    def test_a_bad_record_names_its_first_bad_field(self, read, oracle, doc, message):
        for reader in (read, oracle):
            with pytest.raises(CorruptDocument) as raised:
                reader(doc)
            assert str(raised.value) == message


@pytest.fixture(scope="module")
def demo_dirs(tmp_path_factory):
    return write_bundled(tmp_path_factory.mktemp("demo"))


class TestPremiseCost:
    """Guards on the premise path, which every run and command pays per premise."""

    def test_premise_defines_no_cached_property(self):
        assert not [name for name, value in vars(Premise).items()
                    if isinstance(value, cached_property)]

    def test_key_and_text_are_set_at_construction_and_by_replace(self, demo_dirs):
        premises = [p for d in demo_dirs for pf in load_repo_fixture(d)[0].premise_files
                    for p in pf.premises]
        assert premises
        for p in premises:
            for q in (p, replace(p), replace(p, full_name=p.full_name + "'", file_path="x.lean",
                                             statement=p.statement + " ∧ True")):
                assert q.key == premise_key(q.file_path, q.full_name)
                assert q.text == f"{q.full_name} : {q.statement}"

    def test_ingest_reads_fewer_fields_than_records(self, demo_dirs, monkeypatch):
        """A valid record is built in one pass, not field by field."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return storage.json_field(*args, **kwargs)

        for module in (corpus_module, database, retriever, search):
            monkeypatch.setattr(module, "json_field", counting)
        records = 0
        for d in demo_dirs:
            record, _ = load_repo_fixture(d)
            records += (sum(len(pf.premises) for pf in record.premise_files)
                        + sum(1 + len(t.traced_tactics) for t in record.theorems))
        assert 0 < len(calls) < records

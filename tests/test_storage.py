"""Atomic artifact writes, guarded reads and the field reader behind every loader."""

import copy
import itertools
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    pfile,
    premise_file_by_field,
    tactic,
    tactic_by_field,
    theorem,
    theorem_by_field,
)
from proverloop.corpus import (
    PREMISE_KINDS,
    THEOREM_STATUSES,
    load_theorems,
    parse_corpus,
    premise_file_from_json,
    premise_file_to_json,
    tactic_from_json,
    tactic_to_json,
    theorem_from_json,
    theorem_to_json,
)
from proverloop.database import DynamicDatabase
from proverloop.errors import CorruptDocument, IoFailure, ProverloopError
from proverloop.retriever import Checkpoint, EmbeddingModel
from proverloop.search import TableFixture
from proverloop.storage import dump_json, parse_json, read_json, read_text, write_atomic


def checkpoint(seed):
    m = EmbeddingModel.random_init(dim=4, n_features=32, seed=seed)
    return Checkpoint(model=m, history=("a",), fisher=np.ones(m.weight.size))


class TestWriteAtomic:
    def test_writes_text_and_bytes_creating_parents(self, tmp_path):
        write_atomic(tmp_path / "a" / "b" / "t.txt", "π\n")
        write_atomic(tmp_path / "a" / "raw.bin", b"\x00\xff")
        assert (tmp_path / "a" / "b" / "t.txt").read_bytes() == "π\n".encode("utf-8")
        assert (tmp_path / "a" / "raw.bin").read_bytes() == b"\x00\xff"
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["b", "raw.bin"]

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch,
                                                           failure):
        path = tmp_path / "ck.ckpt"
        checkpoint(0).save(path)
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise failure

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(IoFailure if isinstance(failure, OSError) else KeyboardInterrupt):
            checkpoint(1).save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.ckpt"]

    def test_writes_chunks_in_turn(self, tmp_path):
        arr = np.arange(3.0)
        write_atomic(tmp_path / "c.bin", iter(["π", b"\x00", memoryview(arr).cast("B")]))
        assert (tmp_path / "c.bin").read_bytes() == "π".encode("utf-8") + b"\x00" + arr.tobytes()

    @pytest.mark.parametrize("bad, raised", [
        ({"x": float("nan")}, ValueError),
        (OSError("disk full"), IoFailure),
    ])
    def test_a_chunk_that_raises_keeps_the_old_file_and_no_temp(self, tmp_path, bad, raised):
        path = tmp_path / "doc.json"
        write_atomic(path, "old\n")

        def chunks():
            yield dump_json({"a": 1})
            if isinstance(bad, OSError):
                raise bad
            yield dump_json(bad)

        with pytest.raises(raised):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_a_directory_in_the_way_is_an_io_failure(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IoFailure):
            write_atomic(tmp_path / "taken", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_dump_json_sorts_keys_and_keeps_utf8_text(tmp_path):
    text = dump_json({"b": ["∀ x, x ≤ x"], "a": 1})
    assert text == '{"a":1,"b":["∀ x, x ≤ x"]}\n'
    write_atomic(tmp_path / "doc.json", text)
    assert read_json(tmp_path / "doc.json", "doc") == {"a": 1, "b": ["∀ x, x ≤ x"]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_dump_json_refuses_numbers_json_cannot_hold(value):
    with pytest.raises(ValueError):
        dump_json({"x": [value]})


class TestReads:
    def test_read_json_maps_failures(self, tmp_path):
        with pytest.raises(IoFailure):
            read_json(tmp_path / "absent.json", "thing")
        (tmp_path / "bad.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(CorruptDocument, match="thing"):
            read_json(tmp_path / "bad.json", "thing")
        (tmp_path / "ok.json").write_text('{"a": [1]}', encoding="utf-8")
        assert read_json(tmp_path / "ok.json", "thing") == {"a": [1]}

    def test_undecodable_text_is_corrupt(self, tmp_path):
        (tmp_path / "latin.txt").write_bytes(b"caf\xe9")
        with pytest.raises(CorruptDocument):
            read_text(tmp_path / "latin.txt", "config")
        with pytest.raises(CorruptDocument):
            read_json(tmp_path / "latin.txt", "config")


LONE = "x \ud800 y"  # json.dumps writes it as an unpaired escape


class TestLoneSurrogates:
    @pytest.mark.parametrize("doc, field", [
        ({"a": LONE}, "a"),
        ({"a": [{"b": 1}, {"b": ["ok", LONE]}]}, "a[1].b[1]"),
        ({"a": {LONE: 1}}, "a.x \\ud800 y"),
        ([LONE], "[0]"),
        (LONE, "(the document)"),
        ({"a": "\udc00\ud800"}, "a"),
    ], ids=["value", "nested-list-item", "key", "top-level-item", "top-level", "reversed-pair"])
    def test_parse_json_names_the_field(self, doc, field):
        with pytest.raises(CorruptDocument) as info:
            parse_json(json.dumps(doc), "doc")
        assert str(info.value) == f"doc field {field} holds a lone surrogate"

    def test_pairs_and_escaped_backslashes_are_text(self):
        assert parse_json('{"a": "\\ud83d\\ude00"}', "doc") == {"a": "\U0001f600"}
        assert parse_json('{"a": "\\\\ud800"}', "doc") == {"a": "\\ud800"}
        assert parse_json(b'["\\u00e9"]', "doc") == ["\u00e9"]

    def test_corpus_line(self):
        doc = premise_file_to_json(pfile("lib/a.lean", names=("a.x", "a.y")))
        doc["premises"][1]["code"] = LONE
        with pytest.raises(CorruptDocument,
                           match=r"^line 2: premise file field premises\[1\]\.code"):
            parse_corpus("\n" + json.dumps(doc) + "\n")

    def test_theorem_file(self):
        doc = [theorem_to_json(theorem("t", tactics=(tactic("a.x"),)))]
        doc[0]["traced_tactics"][0]["state_before"] = LONE
        with pytest.raises(CorruptDocument,
                           match=r"^theorem file field \[0\]\.traced_tactics\[0\]\.state_before"):
            load_theorems(json.dumps(doc))

    @pytest.mark.parametrize("what, load", [
        ("database", DynamicDatabase.load),
        ("search table", TableFixture.load),
    ])
    def test_read_json_documents(self, tmp_path, what, load):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"format_version": 2, "initial": {"k": LONE}}),
                        encoding="utf-8")
        with pytest.raises(CorruptDocument, match=f"{what} at .* field initial.k holds"):
            load(path)

    def test_checkpoint_header(self, tmp_path):
        """save writes UTF-8, which has no lone surrogate, so the header
        carries one only as the escape another writer may use."""
        path = tmp_path / "ck.ckpt"
        Checkpoint(model=EmbeddingModel.random_init(dim=4, n_features=32, seed=0),
                   history=("a", "b")).save(path)
        head, _, payload = path.read_bytes().partition(b"\n")
        header = {**json.loads(head), "history": ["a", LONE]}
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        with pytest.raises(CorruptDocument, match=r"header line field history\[1\] holds"):
            Checkpoint.load(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.just(LONE),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """A valid document of each kind, the loader that reads it, and the
    paths of the objects in it whose fields the property changes."""
    path = tmp_path_factory.mktemp("fuzz") / "ck.ckpt"
    checkpoint(0).save(path)
    head, _, payload = path.read_bytes().partition(b"\n")

    def load_header(header):
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        Checkpoint.load(path)

    proved = theorem_to_json(theorem("t", tactics=(tactic("a.x"),)))
    edge = {"from": "s", "tactic": "t", "log_prob": -0.5, "to": "PROVED",
            "requires_premise": "a.x", "fails": False}
    premise_file = premise_file_to_json(pfile("lib/a.lean", names=("a.x",)))
    record = {"url": "fixture://r", "commit": "c", "name": "r", "date_added": "2024-01-01",
              "toolchain_version": "v4", "theorems": [proved], "traced_files": ["lib/a.lean"],
              "premise_files": [premise_file]}
    return {
        "theorem": (proved, theorem_from_json, [(), ("traced_tactics", 0)]),
        "table": ({"initial": {"k": "s"}, "edges": [edge]}, TableFixture.from_json,
                  [(), ("edges", 0)]),
        "database": ({"format_version": 2, "repositories": [record]},
                     DynamicDatabase.from_json, [(), ("repositories", 0)]),
        "header": (json.loads(head), load_header, [()]),
        "corpus line": (premise_file, lambda line: parse_corpus(json.dumps(line) + "\n"),
                        [(), ("premises", 0)]),
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_replaced_field_loads_or_raises_a_package_error(documents, data):
    """Any JSON value (NaN and a lone surrogate included) in place of one
    field of a valid theorem or one of its traced tactics, search table or
    one of its edges, database or its record, checkpoint header, or corpus
    line or one of its premises, or that field deleted, either loads or
    raises a ProverloopError, never another exception."""
    valid, load, paths = documents[data.draw(st.sampled_from(sorted(documents)))]
    load(valid)
    try:
        load(_one_field_replaced(data, valid, paths, _JSON_VALUES))
    except ProverloopError:
        pass


_DELETED = object()


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replaced(valid, path, field, value):
    """A copy of valid whose object at path has field set to value, or
    deleted if value is _DELETED."""
    changed = copy.deepcopy(valid)
    target = _at(changed, path)
    if value is _DELETED:
        del target[field]
    else:
        target[field] = value
    return changed


def _one_field_replaced(data, valid, paths, values):
    """_replaced at a drawn path and field, by a value drawn from values or
    _DELETED."""
    path = data.draw(st.sampled_from(paths))
    field = data.draw(st.sampled_from(sorted(_at(valid, path))))
    return _replaced(valid, path, field, data.draw(st.just(_DELETED) | values))


# Values next to a valid record's, so the one-pass checks meet their edges:
# a bool, a float or 0 in a position, a start after its end, a taken name or
# path, every kind and status, and annotations that hold their names or not.
_NEAR_VALUES = [
    None, "", "a.x", "a.y", "lib/a.lean", "lib/b.lean", "done", *PREMISE_KINDS,
    *THEOREM_STATUSES, [1, 1], [0, 1], [1, 0], [99, 1], [True, 1], [1, 1.0], [1], [1, 1, 1],
    [], ["a.x"], ["a.x", 1], ["lib/a.lean"], ["apply <a>a.x</a>", ["a.x"]], ["rfl", ["a.x"]],
    ["rfl", []], ["rfl"],
]


@pytest.fixture(scope="module")
def records(documents):
    """A valid record of each kind the corpus reads in one pass, its reader,
    the field-by-field oracle, and the paths of the objects whose fields the
    tests change: the corpus line (and its premise) and the theorem (and its
    traced tactic) of the documents above, a premise file with two
    premises, a proved sorry with its proof, and a lone traced tactic."""
    two = premise_file_to_json(pfile("lib/a.lean", names=("a.x", "a.y"), imports=("lib/b.lean",)))
    found = theorem_to_json(theorem("s", tactics=(tactic("a.x"),), status="sorry_proven",
                                    proof=("apply a.x",)))
    lines = [(), ("premises", 0), ("premises", -1)]
    return {
        "corpus line": (documents["corpus line"][0], premise_file_from_json,
                        premise_file_by_field, lines),
        "two premises": (two, premise_file_from_json, premise_file_by_field, lines),
        "theorem": (documents["theorem"][0], theorem_from_json, theorem_by_field,
                    [(), ("traced_tactics", 0)]),
        "proved sorry": (found, theorem_from_json, theorem_by_field, [(), ("traced_tactics", 0)]),
        "traced tactic": (tactic_to_json(tactic("a.x")), tactic_from_json, tactic_by_field, [()]),
    }


def _outcome(read, doc):
    try:
        return read(doc)
    except CorruptDocument as e:
        return f"CorruptDocument: {e}"


def test_the_one_pass_readers_match_the_field_reads_on_every_near_value(records):
    """Every field of a corpus line, premise, theorem or traced tactic,
    deleted or set to each near value in turn: the one-pass reader and the
    field-by-field oracle return equal records or raise CorruptDocument with
    the same message."""
    for valid, read, oracle, paths in records.values():
        assert read(valid) == oracle(valid)
        for path in paths:
            for field in sorted(_at(valid, path)):
                for value in (_DELETED, *_NEAR_VALUES):
                    changed = _replaced(valid, path, field, value)
                    assert _outcome(read, changed) == _outcome(oracle, changed), (path, field)


def test_the_one_pass_readers_name_the_bad_field_the_field_reads_name(records):
    """Two fields of a record changed at once, each deleted or set to a
    near value: where both are bad, the reader checks them in the oracle's
    order and names the same one. A fixed sample of 64 value pairs per
    pair of fields (both in the premise file, its premises, the theorem,
    the proved sorry or a traced tactic), deepest change applied first."""
    rng = random.Random(0)
    values = [_DELETED, *_NEAR_VALUES]
    for valid, read, oracle, paths in records.values():
        slots = {(id(_at(valid, path)), field): (path, field)
                 for path in paths for field in sorted(_at(valid, path))}
        for first, second in itertools.combinations(slots.values(), 2):
            deep, shallow = sorted((first, second), key=lambda slot: -len(slot[0]))
            for v1, v2 in rng.sample(list(itertools.product(values, repeat=2)), 64):
                changed = _replaced(_replaced(valid, *deep, v1), *shallow, v2)
                assert _outcome(read, changed) == _outcome(oracle, changed), (deep, shallow)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_one_pass_readers_accept_exactly_what_the_field_reads_accept(records, data):
    """The same with one field replaced by any JSON value, NaN and a lone
    surrogate included."""
    valid, read, oracle, paths = records[data.draw(st.sampled_from(sorted(records)))]
    changed = _one_field_replaced(data, valid, paths, _JSON_VALUES)
    assert _outcome(read, changed) == _outcome(oracle, changed)

"""Atomic artifact writes and guarded reads."""

import os

import numpy as np
import pytest

from proverloop.errors import CorruptDocument, IoFailure
from proverloop.retriever import Checkpoint, EmbeddingModel
from proverloop.storage import dump_json, read_json, read_text, write_atomic


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

    def test_a_directory_in_the_way_is_an_io_failure(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(IoFailure):
            write_atomic(tmp_path / "taken", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_dump_json_sorts_keys_and_keeps_utf8_text(tmp_path):
    text = dump_json({"b": ["∀ x, x ≤ x"], "a": 1})
    assert text == '{\n  "a": 1,\n  "b": [\n    "∀ x, x ≤ x"\n  ]\n}\n'
    write_atomic(tmp_path / "doc.json", text)
    assert read_json(tmp_path / "doc.json", "doc") == {"a": 1, "b": ["∀ x, x ≤ x"]}


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

"""Growable store of traced repositories and dataset generation.

The database keeps each repository once, in the order they were added
(most recent last), remembers which admitted-but-unproven theorems have
since been proved, and turns a curriculum prefix into a task's
train/val/test dataset by a strategy, merging with well-defined dedup rules:

* duplicate theorem identities resolve to the most recently added copy,
* duplicate premise files and traced files resolve to the first encountered.

A persisted database (format 2) stores each fact once: every repository
record keeps its theorems in one list, in record order, each with its own
status and proof. Difficulties are derived from the theorems on demand and
never stored. The document is canonical JSON (sorted keys, compact, one
line), so a persist/load round trip restores the same records in the same
order and re-serializes to the same bytes.

A dataset written for a training task is only its metadata.json: the
metadata, each split's theorem keys and the corpus's premise-file paths.
The theorems and premise files themselves are in database.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import (
    Corpus,
    DatasetSplit,
    PremiseFile,
    STATUS_SORRY,
    STATUS_SORRY_PROVEN,
    Theorem,
    corpus_from_files,
    premise_file_from_json,
    premise_file_to_json,
    random_split,
    theorem_from_json,
    theorem_to_json,
)
from .curriculum import Difficulty, compute_difficulty
from .errors import AlreadyProven, CorruptDocument, ProverloopError
from .storage import REQUIRED, STRINGS, dump_json, json_field, read_json, write_atomic

# Dataset strategies, as a config spells them: a task trains on its own
# repository, or on every repository of the curriculum so far.
SINGLE_REPO = "single"
MERGE_ALL = "merge-all"
STRATEGIES = (SINGLE_REPO, MERGE_ALL)

# Placeholder when fixture metadata carries no date; keeps ingest reproducible.
EPOCH = "1970-01-01T00:00:00Z"

DATABASE_FORMAT = 2


def repo_id_of(url: str, commit: str) -> str:
    return f"{url}@{commit}"


@dataclass
class RepositoryRecord:
    url: str
    commit: str
    name: str
    date_added: str = EPOCH
    toolchain_version: str = ""
    theorems: list[Theorem] = field(default_factory=list)
    premise_files: list[PremiseFile] = field(default_factory=list)
    traced_file_paths: list[str] = field(default_factory=list)

    @property
    def repo_id(self) -> str:
        return repo_id_of(self.url, self.commit)

    def metadata_json(self) -> dict:
        """The metadata fields, as database.json records and repo.json store them."""
        return {"url": self.url, "commit": self.commit, "name": self.name,
                "date_added": self.date_added, "toolchain_version": self.toolchain_version}

    @classmethod
    def from_metadata(cls, doc: object, what: str, name: object = REQUIRED,
                      **contents) -> RepositoryRecord:
        """Inverse of metadata_json, with name defaulting to the given one and
        the theorems, premise files and traced paths given as contents."""
        return cls(
            url=json_field(doc, "url", str, what),
            commit=json_field(doc, "commit", str, what),
            name=json_field(doc, "name", str, what, default=name),
            date_added=json_field(doc, "date_added", str, what, default=EPOCH),
            toolchain_version=json_field(doc, "toolchain_version", str, what, default=""),
            **contents,
        )

    def json_chunks(self) -> Iterator[str]:
        """The record as database.json stores it, without a newline, in
        pieces: one dump_json per premise file and one per theorem, inside
        the record that dump_json renders with both lists empty."""
        shell = dump_json({**self.metadata_json(), "premise_files": [], "theorems": [],
                           "traced_files": self.traced_file_paths})[:-1]
        head, rest = _cut(shell, "premise_files")
        middle, tail = _cut(rest, "theorems")
        yield head
        yield from _each_json(premise_file_to_json(pf) for pf in self.premise_files)
        yield middle
        yield from _each_json(theorem_to_json(t) for t in self.theorems)
        yield tail

    @property
    def difficulty_cache(self) -> dict[tuple[str, str, str], Difficulty]:
        """Difficulty of every theorem by key, in record order, computed afresh."""
        return {t.key: compute_difficulty(t) for t in self.theorems}

    def sorries(self) -> list[Theorem]:
        """Unproven theorems in deterministic (file, name) order."""
        return sorted((t for t in self.theorems if t.status == STATUS_SORRY),
                      key=lambda t: t.key)

    def record_proof(self, key: tuple[str, str, str], proof: list[str]) -> Theorem:
        """Mark this record's unproven theorem key as proved by proof: the one
        sorry -> sorry_proven transition. Transitions are monotone: a theorem
        already proved, by trace or by search, raises AlreadyProven."""
        for i, thm in enumerate(self.theorems):
            if thm.key == key:
                if thm.status != STATUS_SORRY:
                    raise AlreadyProven(f"theorem {key[1]!r} already has a proof")
                self.theorems[i] = thm.with_status(STATUS_SORRY_PROVEN, tuple(proof))
                return self.theorems[i]
        raise ProverloopError(f"no theorem with key {key!r} in {self.repo_id}")

    def validate(self) -> None:
        seen_paths: set[str] = set()
        for pf in self.premise_files:
            if pf.path in seen_paths:
                raise CorruptDocument(f"duplicate premise file {pf.path!r} in {self.repo_id}")
            seen_paths.add(pf.path)
        seen_keys: set[tuple[str, str, str]] = set()
        for t in self.theorems:
            if t.key in seen_keys:
                raise CorruptDocument(f"duplicate theorem {t.full_name!r} in {self.repo_id}")
            seen_keys.add(t.key)
            if t.status == STATUS_SORRY and t.traced_tactics:
                raise CorruptDocument(f"unproven theorem {t.full_name!r} carries traced tactics")
            if t.status == STATUS_SORRY and t.file_path not in seen_paths:
                raise CorruptDocument(f"open goal {t.full_name!r} is in {t.file_path!r}, "
                                      f"not a premise file of {self.repo_id}")
        # raises if imports dangle or cycle
        corpus_from_files(self.premise_files)


@dataclass
class DatasetMetadata:
    repo_ids: list[str]
    theorem_count: int
    premise_file_count: int
    traced_file_count: int
    split_sizes: dict[str, int]
    created: str

    def to_json(self) -> dict:
        return {
            "repo_ids": list(self.repo_ids),
            "counts": {
                "theorems": self.theorem_count,
                "premise_files": self.premise_file_count,
                "traced_files": self.traced_file_count,
            },
            "splits": dict(self.split_sizes),
            "created": self.created,
        }


@dataclass
class GeneratedDataset:
    split: DatasetSplit
    corpus: Corpus
    metadata: DatasetMetadata

    @property
    def theorems(self) -> list[Theorem]:
        return self.split.train + self.split.val + self.split.test


class DynamicDatabase:
    """Ordered collection of repository records."""

    def __init__(self, repositories: list[RepositoryRecord] | None = None) -> None:
        self.repositories: list[RepositoryRecord] = []
        for rec in repositories or []:
            self.add_repository(rec)

    # -- membership ---------------------------------------------------------

    def add_repository(self, record: RepositoryRecord) -> None:
        """Append a validated record as the most recent. Each repository is
        held once: a repo id the database already holds is rejected."""
        if record.repo_id in self.repo_ids:
            raise CorruptDocument(f"repository {record.repo_id!r} is listed twice")
        record.validate()
        self.repositories.append(record)

    def get_repository(self, repo_id: str) -> RepositoryRecord:
        for rec in self.repositories:
            if rec.repo_id == repo_id:
                return rec
        raise ProverloopError(f"unknown repository {repo_id!r}")

    @property
    def repo_ids(self) -> list[str]:
        return [r.repo_id for r in self.repositories]

    # -- sorry bookkeeping ----------------------------------------------------

    def record_sorry_proof(
        self, key: tuple[str, str, str], proof: list[str]
    ) -> Theorem:
        """Mark the most recent unproven copy of a theorem as proved
        (RepositoryRecord.record_proof); with every copy proved, the most
        recent one raises AlreadyProven."""
        copies = [(rec, t) for rec in reversed(self.repositories)
                  for t in rec.theorems if t.key == key]
        if not copies:
            raise ProverloopError(f"no theorem with key {key!r}")
        record = next((rec for rec, t in copies if t.status == STATUS_SORRY), copies[0][0])
        return record.record_proof(key, proof)

    # -- dataset generation ---------------------------------------------------

    def generate_dataset(
        self,
        repo_ids: list[str],
        strategy: str = MERGE_ALL,
        seed: int = 0,
        val_frac: float = 0.02,
        test_frac: float = 0.02,
    ) -> GeneratedDataset:
        """The dataset of the task whose curriculum prefix is repo_ids, the
        repositories trained on so far in curriculum order: `single` keeps
        the last of them, the task's own, and `merge-all` keeps all of them,
        merged by the dedup rules above. seed draws the split."""
        if strategy not in STRATEGIES:
            raise ProverloopError(
                f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}")
        if not repo_ids:
            raise ProverloopError("no repositories given")
        if strategy == SINGLE_REPO:
            repo_ids = repo_ids[-1:]
        records = [self.get_repository(rid) for rid in repo_ids]

        recency = {rec.repo_id: i for i, rec in enumerate(self.repositories)}
        ordered_keys: list[tuple[str, str, str]] = []
        best: dict[tuple[str, str, str], tuple[int, Theorem]] = {}
        premise_files: list[PremiseFile] = []
        seen_paths: set[str] = set()
        for rec in records:
            rank = recency[rec.repo_id]
            for thm in rec.theorems:
                k = thm.key
                if k not in best:
                    ordered_keys.append(k)
                    best[k] = (rank, thm)
                elif rank > best[k][0]:
                    best[k] = (rank, thm)
            for pf in rec.premise_files:
                if pf.path not in seen_paths:
                    seen_paths.add(pf.path)
                    premise_files.append(pf)

        theorems = [best[k][1] for k in ordered_keys]
        corpus = corpus_from_files(premise_files)
        split = random_split(theorems, seed=seed, val_frac=val_frac, test_frac=test_frac)
        metadata = DatasetMetadata(
            repo_ids=list(repo_ids),
            theorem_count=len(theorems),
            premise_file_count=len(premise_files),
            traced_file_count=len({p for rec in records for p in rec.traced_file_paths}),
            split_sizes={
                "train": len(split.train),
                "val": len(split.val),
                "test": len(split.test),
            },
            created=max(rec.date_added for rec in records),
        )
        return GeneratedDataset(split=split, corpus=corpus, metadata=metadata)

    # -- persistence ----------------------------------------------------------

    @classmethod
    def from_json(cls, doc: object) -> DynamicDatabase:
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != DATABASE_FORMAT or type(version) is not int:
            raise CorruptDocument(
                f"database is format {version!r}, not the format {DATABASE_FORMAT} this "
                "version reads; rerun `proverloop ingest` or `proverloop run` to rewrite it")
        db = cls()
        for n, raw in enumerate(json_field(doc, "repositories", list, "database"), start=1):
            name = json_field(raw, "name", str, f"database record {n}")
            try:
                record = RepositoryRecord.from_metadata(
                    raw, "database record",
                    theorems=[theorem_from_json(t) for t in
                              json_field(raw, "theorems", list, "database record")],
                    premise_files=[_premise_file(i, pf) for i, pf in enumerate(
                        json_field(raw, "premise_files", list, "database record"), start=1)],
                    traced_file_paths=json_field(raw, "traced_files", STRINGS, "database record"),
                )
                db.add_repository(record)
            except ProverloopError as e:
                raise CorruptDocument(f"bad repository record {n} ({name}): {e}") from e
        return db

    def json_chunks(self) -> Iterator[str]:
        """The one encoder of database.json: the canonical document (as
        dump_json writes it) in pieces, one per premise file and one per
        theorem (RepositoryRecord.json_chunks), so the whole document never
        exists at once."""
        head, tail = _cut(dump_json({"format_version": DATABASE_FORMAT, "repositories": []}),
                          "repositories")
        yield head
        for n, rec in enumerate(self.repositories):
            if n:
                yield ","
            yield from rec.json_chunks()
        yield tail

    def dumps(self) -> str:
        """The database.json text, joined from json_chunks."""
        return "".join(self.json_chunks())

    def persist(self, path: str | Path) -> None:
        """Write dumps() to path atomically, streaming json_chunks to the
        temporary file in bounded memory."""
        write_atomic(path, self.json_chunks())

    @classmethod
    def load(cls, path: str | Path) -> DynamicDatabase:
        return cls.from_json(read_json(path, "database"))


def _premise_file(i: int, doc: object) -> PremiseFile:
    """premise_file_from_json, its errors naming the file's place in its record."""
    try:
        return premise_file_from_json(doc)
    except CorruptDocument as e:
        raise CorruptDocument(f"premise file {i}: {e}") from e


def _cut(text: str, key: str) -> tuple[str, str]:
    """text split just inside the empty list '"key":[]', which occurs once."""
    i = text.index(f'"{key}":[]') + len(key) + 4
    return text[:i], text[i:]


def _each_json(docs: Iterable[object]) -> Iterator[str]:
    """dump_json of each document without its newline, with commas between."""
    for n, doc in enumerate(docs):
        if n:
            yield ","
        yield dump_json(doc)[:-1]


def write_dataset(dataset: GeneratedDataset, out_dir: str | Path) -> None:
    """Write out_dir/metadata.json: the metadata, the train, val and test
    theorem keys in split order, and the premise-file paths in corpus order."""
    doc = dataset.metadata.to_json()
    for part in ("train", "val", "test"):
        doc[part] = [list(t.key) for t in getattr(dataset.split, part)]
    doc["premise_files"] = dataset.corpus.paths
    write_atomic(Path(out_dir) / "metadata.json", dump_json(doc))

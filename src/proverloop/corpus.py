"""Premise corpora, traced theorems, and dataset splits.

A corpus is a set of premise files connected by imports. Files arrive as one
JSON object per line:

    {"path": ..., "imports": [...], "premises": [{"full_name": ..., "code": ...,
     "start": [line, col], "end": [line, col], "kind": ...}]}

Theorems carry their traced tactics and travel as JSON arrays. Splitting into
train/val/test is seeded and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CorruptDocument
from .storage import (POSITION, STRINGS, dump_json, is_position, is_strings, json_field,
                      parse_json)

Pos = tuple[int, int]

KIND_DEFINITION = "definition"
KIND_THEOREM_LIKE = "theorem-like"
PREMISE_KINDS = (KIND_DEFINITION, KIND_THEOREM_LIKE)

STATUS_PROVEN = "proven"
STATUS_SORRY = "sorry_unproven"
STATUS_SORRY_PROVEN = "sorry_proven"
THEOREM_STATUSES = (STATUS_PROVEN, STATUS_SORRY, STATUS_SORRY_PROVEN)

# State text that marks a finished proof in traced tactics.
PROVED_MARKER = "<proved>"


@dataclass(frozen=True)
class Premise:
    """One named declaration inside a premise file."""

    full_name: str
    file_path: str
    statement: str
    start: Pos
    end: Pos
    kind: str
    key: str = field(init=False, repr=False, compare=False)
    # Serialization used for embedding and retrieval.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", premise_key(self.file_path, self.full_name))
        object.__setattr__(self, "text", f"{self.full_name} : {self.statement}")


def premise_key(file_path: str, full_name: str) -> str:
    return f"{file_path}::{full_name}"


@dataclass(frozen=True)
class PremiseFile:
    path: str
    imports: tuple[str, ...]
    premises: tuple[Premise, ...]

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """Its premises' texts in order, the unit they are featurized and
        embedded in."""
        return tuple(p.text for p in self.premises)


@dataclass(frozen=True)
class TracedTactic:
    """A proof step with its retrieval annotations.

    annotated_tactic is the tactic text with premise references marked; the
    names in referenced_premises appear verbatim inside it.
    """

    tactic: str
    annotated_tactic: str
    referenced_premises: tuple[str, ...]
    state_before: str
    state_after: str


@dataclass(frozen=True)
class Theorem:
    url: str
    commit: str
    file_path: str
    full_name: str
    statement: str
    start: Pos
    end: Pos
    traced_tactics: tuple[TracedTactic, ...] = ()
    status: str = STATUS_PROVEN
    proof: tuple[str, ...] | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity: same path, name and statement means the same theorem."""
        return (self.file_path, self.full_name, self.statement)

    @property
    def key_str(self) -> str:
        return premise_key(self.file_path, self.full_name)

    def with_status(self, status: str, proof: tuple[str, ...] | None = None) -> Theorem:
        return replace(self, status=status, proof=proof)


@dataclass
class Corpus:
    """Premise files in topological import order with lookup tables."""

    files: tuple[PremiseFile, ...]
    _by_name: dict[str, Premise] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {}
        for f in self.files:
            for p in f.premises:
                # first definition in topological order wins name lookup
                self._by_name.setdefault(p.full_name, p)

    @property
    def paths(self) -> list[str]:
        return [f.path for f in self.files]

    def premise_by_name(self, full_name: str) -> Premise | None:
        return self._by_name.get(full_name)

    def all_premises(self) -> list[Premise]:
        return [p for f in self.files for p in f.premises]

    @cached_property
    def _key_order(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        """One stable sort of every premise by key, kept for every index
        build of the corpus: the sorted keys, and each file's rows in them."""
        keys = [p.key for f in self.files for p in f.premises]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        row = np.empty(len(keys), dtype=np.intp)
        row[order] = np.arange(len(keys))
        ends = np.cumsum([len(f.premises) for f in self.files], dtype=np.intp)
        return (tuple(keys[i] for i in order),
                tuple(row[end - len(f.premises):end] for f, end in zip(self.files, ends)))

    @property
    def keys(self) -> tuple[str, ...]:
        """Every premise key in ascending order, the row order of an index."""
        return self._key_order[0]

    @property
    def file_rows(self) -> tuple[np.ndarray, ...]:
        """The row in keys of each premise, file by file."""
        return self._key_order[1]


@dataclass
class DatasetSplit:
    train: list[Theorem]
    val: list[Theorem]
    test: list[Theorem]


# -- parsing ----------------------------------------------------------------

def premise_file_from_json(obj: object) -> PremiseFile:
    """One premise file, its fields checked in one pass in document order.
    A bad field raises CorruptDocument, and the caller puts where the file
    came from (a corpus line, a database record) in front of its message.

    Each field is tested inline with the predicate json_field uses; only a
    field that fails goes to json_field, which then raises the message
    naming it. The theorem and tactic readers below work the same way."""
    if type(obj) is not dict or type(path := obj.get("path")) is not str:
        json_field(obj, "path", str, "premise file")
    if not path:
        raise CorruptDocument("path must be a non-empty string")
    if not is_strings(imports := obj.get("imports")):
        json_field(obj, "imports", STRINGS, "premise file")
    if path in imports:
        raise CorruptDocument("file imports itself")
    if type(raws := obj.get("premises")) is not list:
        json_field(obj, "premises", list, "premise file")
    by_name: dict[str, Premise] = {}
    for raw in raws:
        if type(raw) is not dict or type(name := raw.get("full_name")) is not str:
            json_field(raw, "full_name", str, "premise")
        if not name:
            raise CorruptDocument("full_name must be a non-empty string")
        if name in by_name:
            raise CorruptDocument(f"duplicate premise name {name!r}")
        if type(code := raw.get("code")) is not str:
            json_field(raw, "code", str, "premise")
        if not is_position(start := raw.get("start")):
            json_field(raw, "start", POSITION, "premise")
        if not is_position(end := raw.get("end")):
            json_field(raw, "end", POSITION, "premise")
        if start > end:
            raise CorruptDocument("premise start must not follow its end")
        if type(kind := raw.get("kind")) is not str:
            json_field(raw, "kind", str, "premise")
        if kind not in PREMISE_KINDS:
            raise CorruptDocument(f"kind must be one of {PREMISE_KINDS}")
        by_name[name] = Premise(name, path, code, tuple(start), tuple(end), kind)
    return PremiseFile(path, tuple(imports), tuple(by_name.values()))


def parse_corpus(text: str) -> Corpus:
    """Parse JSONL corpus text, validate imports, and order topologically."""
    files: list[PremiseFile] = []
    seen_paths: set[str] = set()
    # not splitlines: dump_json writes U+0085, U+2028 and U+2029 raw in strings
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            pf = premise_file_from_json(parse_json(line, "premise file"))
            if pf.path in seen_paths:
                raise CorruptDocument(f"duplicate file path {pf.path!r}")
        except CorruptDocument as e:
            raise CorruptDocument(f"line {line_no}: {e}") from e
        seen_paths.add(pf.path)
        files.append(pf)
    return corpus_from_files(files)


def corpus_from_files(files: list[PremiseFile]) -> Corpus:
    """Validate import targets and build a topologically ordered corpus."""
    paths = {f.path for f in files}
    for f in files:
        for target in f.imports:
            if target not in paths:
                raise CorruptDocument(f"{f.path!r} imports unknown file {target!r}")
    order = topological_order(files)
    by_path = {f.path: f for f in files}
    return Corpus(files=tuple(by_path[p] for p in order))


def premise_file_to_json(f: PremiseFile) -> dict:
    return {
        "path": f.path,
        "imports": list(f.imports),
        "premises": [
            {
                "full_name": p.full_name,
                "code": p.statement,
                "start": list(p.start),
                "end": list(p.end),
                "kind": p.kind,
            }
            for p in f.premises
        ],
    }


def serialize_corpus(corpus: Corpus) -> str:
    """Inverse of parse_corpus. Files keep their (topological) order, one
    canonical JSON document per line."""
    return "".join(dump_json(premise_file_to_json(f)) for f in corpus.files)


def topological_order(files: list[PremiseFile]) -> list[str]:
    """Order file paths so imports precede importers.

    Stable: among files whose imports are all placed, the one earliest in the
    input comes first. Imports pointing outside the given set are ignored
    here; corpus construction validates them separately.
    """
    index = {f.path: i for i, f in enumerate(files)}
    indegree = {f.path: 0 for f in files}
    dependents: dict[str, list[str]] = {f.path: [] for f in files}
    for f in files:
        for target in f.imports:
            if target in indegree:
                indegree[f.path] += 1
                dependents[target].append(f.path)

    import heapq

    ready = [index[p] for p, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    by_index = {i: f.path for i, f in enumerate(files)}
    order: list[str] = []
    while ready:
        path = by_index[heapq.heappop(ready)]
        order.append(path)
        for dep in dependents[path]:
            indegree[dep] -= 1
            if indegree[dep] == 0:
                heapq.heappush(ready, index[dep])
    if len(order) != len(files):
        leftover = [f.path for f in files if f.path not in set(order)]
        raise CorruptDocument(f"import cycle among {leftover!r}")
    return order


# -- splits -----------------------------------------------------------------

def random_split(
    theorems: list[Theorem],
    seed: int,
    val_frac: float = 0.02,
    test_frac: float = 0.02,
) -> DatasetSplit:
    """Seeded uniform split; val and test each get max(1, floor(n * frac))."""
    n = len(theorems)
    if n < 3:
        raise CorruptDocument(f"need at least 3 theorems to split, got {n}")
    n_val = max(1, math.floor(n * val_frac))
    n_test = max(1, math.floor(n * test_frac))
    if n_val + n_test >= n:
        raise CorruptDocument(
            f"split sizes val={n_val} test={n_test} leave no training data for n={n}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val = [theorems[i] for i in perm[:n_val]]
    test = [theorems[i] for i in perm[n_val:n_val + n_test]]
    train = [theorems[i] for i in perm[n_val + n_test:]]
    return DatasetSplit(train=train, val=val, test=test)


# -- theorem (de)serialization ----------------------------------------------

def tactic_to_json(t: TracedTactic) -> dict:
    return {
        "tactic": t.tactic,
        "annotated_tactic": [t.annotated_tactic, list(t.referenced_premises)],
        "state_before": t.state_before,
        "state_after": t.state_after,
    }


def tactic_from_json(obj: object) -> TracedTactic:
    """One traced tactic, checked as premise_file_from_json is."""
    if type(obj) is not dict or type(annotated := obj.get("annotated_tactic")) is not list:
        json_field(obj, "annotated_tactic", list, "traced tactic")
    if not (len(annotated) == 2 and type(text := annotated[0]) is str
            and is_strings(names := annotated[1])):
        raise CorruptDocument("annotated_tactic must be [text, [names...]]")
    for name in names:
        if name not in text:
            raise CorruptDocument(
                f"referenced premise {name!r} does not appear in the annotated tactic")
    if type(tac := obj.get("tactic")) is not str:
        json_field(obj, "tactic", str, "traced tactic")
    if type(before := obj.get("state_before")) is not str:
        json_field(obj, "state_before", str, "traced tactic")
    if type(after := obj.get("state_after")) is not str:
        json_field(obj, "state_after", str, "traced tactic")
    return TracedTactic(tac, text, tuple(names), before, after)


def theorem_to_json(thm: Theorem) -> dict:
    obj = {
        "url": thm.url,
        "commit": thm.commit,
        "file_path": thm.file_path,
        "full_name": thm.full_name,
        "statement": thm.statement,
        "start": list(thm.start),
        "end": list(thm.end),
        "traced_tactics": [tactic_to_json(t) for t in thm.traced_tactics],
        "status": thm.status,
    }
    if thm.proof is not None:
        obj["proof"] = list(thm.proof)
    return obj


def theorem_from_json(obj: object) -> Theorem:
    """One theorem, checked as premise_file_from_json is."""
    if type(obj) is not dict or type(status := obj.get("status", STATUS_PROVEN)) is not str:
        json_field(obj, "status", str, "theorem")
    if status not in THEOREM_STATUSES:
        raise CorruptDocument(f"unknown status {status!r}")
    if type(raws := obj.get("traced_tactics")) is not list:
        json_field(obj, "traced_tactics", list, "theorem")
    tactics = tuple(map(tactic_from_json, raws))
    if status == STATUS_SORRY and tactics:
        raise CorruptDocument("an unproven theorem cannot carry traced tactics")
    if not is_position(start := obj.get("start")):
        json_field(obj, "start", POSITION, "theorem")
    if not is_position(end := obj.get("end")):
        json_field(obj, "end", POSITION, "theorem")
    if start > end:
        raise CorruptDocument("theorem start must not follow its end")
    if not is_strings(proof := obj.get("proof")) and "proof" in obj:
        json_field(obj, "proof", STRINGS, "theorem")
    if proof is None and status == STATUS_SORRY_PROVEN:
        raise CorruptDocument("a proved sorry must carry its proof")
    if type(url := obj.get("url")) is not str:
        json_field(obj, "url", str, "theorem")
    if type(commit := obj.get("commit")) is not str:
        json_field(obj, "commit", str, "theorem")
    if type(file_path := obj.get("file_path")) is not str:
        json_field(obj, "file_path", str, "theorem")
    if type(full_name := obj.get("full_name")) is not str:
        json_field(obj, "full_name", str, "theorem")
    if type(statement := obj.get("statement")) is not str:
        json_field(obj, "statement", str, "theorem")
    return Theorem(url, commit, file_path, full_name, statement, tuple(start), tuple(end),
                   tactics, status, None if proof is None else tuple(proof))


def dump_theorems(theorems: list[Theorem]) -> str:
    return dump_json([theorem_to_json(t) for t in theorems])


def load_theorems(text: str) -> list[Theorem]:
    raw = parse_json(text, "theorem file")
    if not isinstance(raw, list):
        raise CorruptDocument("theorem file must be a JSON array")
    return [theorem_from_json(obj) for obj in raw]

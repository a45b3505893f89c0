"""Repository records, merge semantics, proof bookkeeping, persistence."""

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    database_to_json,
    dataset_from_metadata,
    pfile,
    premise,
    premise_by_key,
    tactic,
    theorem,
)
from proverloop.corpus import THEOREM_STATUSES, dump_theorems, serialize_corpus
from proverloop.database import (
    MERGE_ALL,
    SINGLE_REPO,
    DynamicDatabase,
    RepositoryRecord,
    repo_id_of,
    write_dataset,
)
from proverloop.fixtures import GATED_THEOREM, write_bundled
from proverloop.pipeline import build_curriculum, ingest_fixtures, parse_config
from proverloop.errors import AlreadyProven, CorruptDocument, ProverloopError
from proverloop.storage import dump_json


def make_repo(url="fixture://repos/r1", commit="c1", name="r1", date="2024-05-01T00:00:00Z",
              theorems=None, files=None):
    if files is None:
        files = [pfile("lib/base.lean", names=("base.x", "base.y"))]
    if theorems is None:
        theorems = [
            theorem("r.one", path="lib/base.lean", tactics=(tactic("base.x"),)),
            theorem("r.two", path="lib/base.lean", status="sorry_unproven"),
            theorem("r.three", path="lib/base.lean", tactics=(tactic(), tactic())),
        ]
    return RepositoryRecord(
        url=url, commit=commit, name=name, date_added=date,
        theorems=list(theorems), premise_files=list(files),
        traced_file_paths=[f.path for f in files],
    )


class TestMembership:
    def test_add_to_empty(self):
        db = DynamicDatabase()
        rec = make_repo()
        db.add_repository(rec)
        assert db.repo_ids == [rec.repo_id]

    def test_re_add_is_rejected(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a"))
        with pytest.raises(CorruptDocument,
                           match="^repository 'fixture://a@c1' is listed twice$"):
            db.add_repository(make_repo(url="fixture://a", name="r1-updated"))
        with pytest.raises(CorruptDocument, match="is listed twice$"):
            DynamicDatabase([make_repo(), make_repo()])

    def test_rejected_re_add_leaves_the_database_unchanged(self):
        db = DynamicDatabase()
        first = make_repo(url="fixture://a")
        second = make_repo(url="fixture://b")
        db.add_repository(first)
        db.add_repository(second)
        before = "".join(db.json_chunks())
        with pytest.raises(CorruptDocument):
            db.add_repository(make_repo(url="fixture://a", name="r1-updated"))
        assert db.repositories == [first, second]
        assert db.get_repository(first.repo_id) is first
        assert "".join(db.json_chunks()) == before

    def test_duplicate_theorem_keys_rejected(self):
        dup = theorem("r.one", path="lib/base.lean")
        rec = make_repo(theorems=[dup, dup])
        with pytest.raises(CorruptDocument, match="^duplicate theorem 'r.one' in "):
            DynamicDatabase().add_repository(rec)

    def test_duplicate_premise_file_path_rejected(self):
        rec = make_repo(files=[pfile("lib/a.lean", names=("x",)),
                               pfile("lib/a.lean", names=("y",))])
        with pytest.raises(CorruptDocument, match="^duplicate premise file 'lib/a.lean' in "):
            DynamicDatabase().add_repository(rec)

    def test_open_goal_outside_the_premise_files_rejected(self):
        stray = theorem("r.stray", path="nowhere.lean", status="sorry_unproven")
        rec = make_repo(theorems=[stray])
        with pytest.raises(CorruptDocument, match="'r.stray' is in 'nowhere.lean'"):
            DynamicDatabase().add_repository(rec)

    def test_unknown_repo(self):
        with pytest.raises(ProverloopError,
                           match="^unknown repository 'fixture://missing@c'$"):
            DynamicDatabase().get_repository("fixture://missing@c")

    def test_difficulties_cached_on_add(self):
        db = DynamicDatabase()
        rec = make_repo()
        db.add_repository(rec)
        assert len(rec.difficulty_cache) == 3
        kinds = {rec.difficulty_cache[t.key].kind for t in rec.theorems}
        assert kinds == {"finite", "infinite"}


class TestSorryProofs:
    def test_transition_attaches_proof(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        key = ("lib/base.lean", "r.two", "GoalOf r.two")
        updated = db.record_sorry_proof(key, ["apply base.x", "rfl"])
        assert updated.status == "sorry_proven"
        assert updated.proof == ("apply base.x", "rfl")
        rec = db.repositories[0]
        assert rec.difficulty_cache[key].kind == "finite"
        assert rec.difficulty_cache[key].value == math.exp(2)

    def test_unknown_key(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        with pytest.raises(ProverloopError, match="^no theorem with key "):
            db.record_sorry_proof(("lib/base.lean", "r.missing", "?"), ["rfl"])

    def test_second_proof_rejected(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        key = ("lib/base.lean", "r.two", "GoalOf r.two")
        db.record_sorry_proof(key, ["rfl"])
        with pytest.raises(AlreadyProven):
            db.record_sorry_proof(key, ["exact base.y"])

    def test_counts_conserved_and_proven_monotone(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        rec = db.repositories[0]
        def proven_count():
            return sum(1 for t in rec.theorems if t.status != "sorry_unproven")
        before_total, before_proven = len(rec.theorems), proven_count()
        db.record_sorry_proof(("lib/base.lean", "r.two", "GoalOf r.two"), ["rfl"])
        assert len(rec.theorems) == before_total
        assert proven_count() == before_proven + 1

    def test_most_recent_copy_wins_when_repos_share_a_key(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a"))
        db.add_repository(make_repo(url="fixture://b"))
        key = ("lib/base.lean", "r.two", "GoalOf r.two")
        db.record_sorry_proof(key, ["rfl"])
        older = db.get_repository(repo_id_of("fixture://a", "c1"))
        newer = db.get_repository(repo_id_of("fixture://b", "c1"))
        assert [t.status for t in newer.theorems if t.key == key] == ["sorry_proven"]
        assert [t.status for t in older.theorems if t.key == key] == ["sorry_unproven"]

    def test_a_record_proves_its_own_copy_once(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a"))
        db.add_repository(make_repo(url="fixture://b"))
        key = ("lib/base.lean", "r.two", "GoalOf r.two")
        older, newer = db.repositories
        assert older.record_proof(key, ["rfl"]).proof == ("rfl",)
        assert [t.status for t in older.theorems if t.key == key] == ["sorry_proven"]
        assert [t.status for t in newer.theorems if t.key == key] == ["sorry_unproven"]
        with pytest.raises(AlreadyProven):
            older.record_proof(key, ["exact base.y"])
        with pytest.raises(AlreadyProven):
            older.record_proof(("lib/base.lean", "r.one", "GoalOf r.one"), ["rfl"])
        with pytest.raises(ProverloopError, match="^no theorem with key "):
            older.record_proof(("lib/base.lean", "r.missing", "?"), ["rfl"])


class TestGenerateDataset:
    def test_one_repo_hundred_theorems(self):
        thms = [theorem(f"t{i}", path="lib/base.lean") for i in range(100)]
        db = DynamicDatabase()
        db.add_repository(make_repo(theorems=thms))
        ds = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=0)
        assert ds.metadata.theorem_count == 100
        assert ds.metadata.split_sizes == {"train": 96, "val": 2, "test": 2}

    def test_merge_keeps_most_recent_theorem_copy(self):
        shared = theorem("shared.t", path="lib/base.lean", tactics=(tactic(),))
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a", theorems=[
            shared, theorem("a.only", path="lib/base.lean"),
            theorem("a.more", path="lib/base.lean"),
        ]))
        newer_copy = shared.with_status("sorry_proven", ("rfl",))
        db.add_repository(make_repo(url="fixture://b", theorems=[
            newer_copy, theorem("b.only", path="lib/base.lean"),
        ]))
        ds = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=0)
        assert ds.metadata.theorem_count == 4  # shared key deduplicated
        copies = [t for t in ds.theorems if t.full_name == "shared.t"]
        assert copies == [newer_copy]

    def test_merge_keeps_first_encountered_premise_file(self):
        first = pfile("lib/shared.lean", premises=(premise("s.x", path="lib/shared.lean", statement="first version"),))
        second = pfile("lib/shared.lean", premises=(premise("s.x", path="lib/shared.lean", statement="second version"),))
        mk = lambda url, f, names: make_repo(
            url=url, files=[f],
            theorems=[theorem(n, path="lib/shared.lean") for n in names],
        )
        db = DynamicDatabase()
        db.add_repository(mk("fixture://a", first, ("a.t0", "a.t1", "a.t2")))
        db.add_repository(mk("fixture://b", second, ("b.t0", "b.t1")))
        ds = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=0)
        assert ds.metadata.premise_file_count == 1
        assert premise_by_key(ds.corpus, "lib/shared.lean::s.x").statement == "first version"

    def test_single_repo_equals_merge_all_of_one(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        a = db.generate_dataset(db.repo_ids, strategy=SINGLE_REPO, seed=4)
        b = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=4)
        assert serialize_corpus(a.corpus) == serialize_corpus(b.corpus)
        for part in ("train", "val", "test"):
            assert dump_theorems(getattr(a.split, part)) == dump_theorems(getattr(b.split, part))

    def test_single_of_a_prefix_is_merge_all_of_its_last(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a", theorems=[
            theorem(f"a.t{i}", path="lib/base.lean") for i in range(4)]))
        db.add_repository(make_repo(url="fixture://b", date="2024-06-01T00:00:00Z"))
        db.add_repository(make_repo(url="fixture://c"))
        prefix = ["fixture://c@c1", "fixture://a@c1", "fixture://b@c1"]
        a = db.generate_dataset(prefix, strategy=SINGLE_REPO, seed=2)
        b = db.generate_dataset(prefix[-1:], strategy=MERGE_ALL, seed=2)
        assert a.metadata.to_json() == b.metadata.to_json()
        assert a.metadata.repo_ids == ["fixture://b@c1"]
        assert serialize_corpus(a.corpus) == serialize_corpus(b.corpus)
        assert dump_theorems(a.theorems) == dump_theorems(b.theorems)

    def test_an_unknown_strategy_is_rejected(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        with pytest.raises(ProverloopError, match="^strategy must be one of "):
            db.generate_dataset(db.repo_ids, strategy="single_repo", seed=0)

    def test_merge_is_deterministic(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a"))
        db.add_repository(make_repo(url="fixture://b", date="2024-06-01T00:00:00Z"))
        a = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=9)
        b = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=9)
        assert dump_theorems(a.theorems) == dump_theorems(b.theorems)
        assert serialize_corpus(a.corpus) == serialize_corpus(b.corpus)
        assert a.metadata.to_json() == b.metadata.to_json()
        assert a.metadata.created == "2024-06-01T00:00:00Z"

    def test_all_statuses_travel_into_datasets(self):
        db = DynamicDatabase()
        db.add_repository(make_repo())
        ds = db.generate_dataset(db.repo_ids, strategy=MERGE_ALL, seed=0)
        assert {t.status for t in ds.theorems} == {"proven", "sorry_unproven"}

    def test_write_dataset_emits_files(self, tmp_path):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://b"))
        db.add_repository(make_repo(url="fixture://a"))
        db.record_sorry_proof(("lib/base.lean", "r.two", "GoalOf r.two"), ["rfl"])
        ds = db.generate_dataset(["fixture://a@c1", "fixture://b@c1"], seed=0)
        write_dataset(ds, tmp_path / "d")
        assert [p.name for p in (tmp_path / "d").iterdir()] == ["metadata.json"]
        doc = json.loads((tmp_path / "d" / "metadata.json").read_text(encoding="utf-8"))
        assert doc["premise_files"] == ["lib/base.lean"]
        assert [len(doc[part]) for part in ("train", "val", "test")] == [1, 1, 1]
        assert doc["test"] == [list(ds.split.test[0].key)]
        rebuilt = dataset_from_metadata(db, doc)
        assert rebuilt.split == ds.split
        # the proved copy, in the most recently added repository
        assert "sorry_proven" in {t.status for t in rebuilt.theorems}
        assert serialize_corpus(rebuilt.corpus) == serialize_corpus(ds.corpus)
        assert rebuilt.metadata.to_json() == ds.metadata.to_json()


class TestPersistence:
    def build(self):
        db = DynamicDatabase()
        db.add_repository(make_repo(url="fixture://a"))
        db.add_repository(make_repo(url="fixture://b", date="2024-06-02T00:00:00Z"))
        db.record_sorry_proof(("lib/base.lean", "r.two", "GoalOf r.two"), ["rfl"])
        return db

    def test_round_trip_identity(self, tmp_path):
        db = self.build()
        path = tmp_path / "db.json"
        db.persist(path)
        again = DynamicDatabase.load(path)
        assert again.dumps() == db.dumps()
        assert again.repo_ids == db.repo_ids

    def test_truncated_document_rejected(self, tmp_path):
        db = self.build()
        path = tmp_path / "db.json"
        db.persist(path)
        path.write_text(path.read_text(encoding="utf-8")[:40], encoding="utf-8")
        with pytest.raises(CorruptDocument):
            DynamicDatabase.load(path)

    def test_reserialization_is_a_no_op(self, tmp_path):
        db = self.build()
        path = tmp_path / "db.json"
        db.persist(path)
        # an external tool reads and rewrites the document unchanged
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        assert DynamicDatabase.load(path).dumps() == db.dumps()

    def test_a_bad_premise_names_its_record_not_a_corpus_line(self):
        doc = database_to_json(self.build())
        doc["repositories"][1]["name"] = "r2"
        del doc["repositories"][1]["premise_files"][0]["premises"][1]["code"]
        with pytest.raises(CorruptDocument) as err:
            DynamicDatabase.from_json(doc)
        message = str(err.value)
        assert "repository record 2 (r2): premise file 1: " in message
        assert "missing field 'code'" in message and "line 0" not in message

    def test_an_open_goal_outside_the_premise_files_fails_to_load(self):
        doc = database_to_json(self.build())
        [goal] = [t for t in doc["repositories"][0]["theorems"] if t["full_name"] == "r.two"]
        goal["file_path"] = "nowhere.lean"
        with pytest.raises(CorruptDocument, match="'r.two' is in 'nowhere.lean'"):
            DynamicDatabase.from_json(doc)

    @pytest.mark.parametrize("records", [0, 1, 3])
    def test_persisted_bytes_are_dump_json_of_the_whole_document(self, tmp_path, records):
        """persist streams one chunk per premise file and per theorem; the
        file is still dump_json of the whole document byte for byte."""
        repos = [
            make_repo(url="fixture://ℕ", name="数-ℕ", theorems=[
                theorem("r.∀", path="lib/base.lean", statement="∀ n : ℕ, n ≤ n",
                        status="sorry_proven", proof=("intro n", "exact le_rfl")),
                theorem("r.two", path="lib/base.lean", tactics=(tactic("base.x"),)),
            ]),
            make_repo(url="fixture://empty", name="empty", theorems=[], files=[]),
            make_repo(url="fixture://b", date="2024-06-02T00:00:00Z"),
        ][:records]
        db = DynamicDatabase(repos)
        db.persist(tmp_path / "db.json")
        assert (tmp_path / "db.json").read_bytes() == \
            dump_json(database_to_json(db)).encode("utf-8")
        assert DynamicDatabase.load(tmp_path / "db.json").repositories == db.repositories

    def test_canonical_form_is_stable(self):
        db = self.build()
        assert db.dumps() == db.dumps()
        assert db.dumps().endswith("\n")


class TestRoundTrip:
    """A persisted database reloads to the same records in the same order."""

    @pytest.fixture(scope="class")
    def proved_demo(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("round_trip")
        write_bundled(root / "bundle")
        db, _ = ingest_fixtures(parse_config(root / "bundle" / "run.cfg"))
        gated = next(t for rec in db.repositories for t in rec.theorems
                     if t.full_name == GATED_THEOREM)
        db.record_sorry_proof(gated.key, ["exact h", "qed"])
        path = root / "database.json"
        db.persist(path)
        return db, DynamicDatabase.load(path)

    def test_records_keep_their_theorem_order(self, proved_demo):
        db, again = proved_demo
        for rec, back in zip(db.repositories, again.repositories, strict=True):
            assert [t.key for t in back.theorems] == [t.key for t in rec.theorems]
        assert again.repositories == db.repositories

    @pytest.mark.parametrize("seed", range(6))
    def test_reloaded_database_draws_the_same_split(self, proved_demo, seed):
        db, again = proved_demo
        for repo_id in db.repo_ids:
            split, split_again = (
                d.generate_dataset([repo_id], seed=seed, val_frac=0.2, test_frac=0.2).split
                for d in (db, again)
            )
            for part in ("train", "val", "test"):
                assert dump_theorems(getattr(split_again, part)) == \
                    dump_theorems(getattr(split, part))

    def test_reloaded_database_builds_the_same_curriculum(self, proved_demo):
        db, again = proved_demo
        assert build_curriculum(again) == build_curriculum(db)

    def test_difficulties_are_derived_not_stored(self, proved_demo):
        db, _ = proved_demo
        doc = database_to_json(db)
        assert doc["format_version"] == 2
        for raw, rec in zip(doc["repositories"], db.repositories, strict=True):
            assert "difficulty_cache" not in raw
            assert [t["status"] for t in raw["theorems"]] == [t.status for t in rec.theorems]
        gated = next(t for rec in db.repositories for t in rec.theorems
                     if t.full_name == GATED_THEOREM)
        owner = next(rec for rec in db.repositories if gated in rec.theorems)
        assert owner.difficulty_cache[gated.key].value == math.exp(2)

    @pytest.mark.parametrize("version", [1, None, 3, "2", 2.0])
    def test_other_format_versions_are_rejected(self, proved_demo, version):
        doc = database_to_json(proved_demo[0])
        doc.pop("format_version")
        if version is not None:
            doc["format_version"] = version
        with pytest.raises(CorruptDocument, match=f"format {version!r}, not"):
            DynamicDatabase.from_json(doc)


_TEXT = st.text(alphabet="ab∀⊢→ℕ_. ", max_size=8)


@st.composite
def theorem_lists(draw):
    names = draw(st.lists(_TEXT, max_size=6, unique=True))
    theorems = []
    for name in names:
        status = draw(st.sampled_from(THEOREM_STATUSES))
        stepped = status != "sorry_unproven" and draw(st.booleans())
        proofs = st.lists(_TEXT, max_size=3).map(tuple)
        proof = draw(proofs if status == "sorry_proven" else st.none() | proofs)
        theorems.append(theorem(
            name, path="lib/base.lean", statement=draw(_TEXT), status=status,
            tactics=(tactic("base.x"),) if stepped else (), proof=proof,
        ))
    return theorems


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(theorem_lists(), min_size=1, max_size=3))
def test_round_trip_keeps_theorem_order_and_is_a_fixed_point(theorem_lists):
    db = DynamicDatabase([make_repo(url=f"fixture://r{i}", theorems=thms)
                          for i, thms in enumerate(theorem_lists)])
    text = db.dumps()
    again = DynamicDatabase.from_json(json.loads(text))
    assert [[t.key for t in rec.theorems] for rec in again.repositories] == \
        [[t.key for t in thms] for thms in theorem_lists]
    assert again.repositories == db.repositories
    assert again.dumps() == text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(theorem_lists(), max_size=3))
def test_record_at_a_time_encoding_equals_the_whole_document(theorem_lists):
    db = DynamicDatabase([make_repo(url=f"fixture://r{i}", theorems=thms)
                          for i, thms in enumerate(theorem_lists)])
    assert db.dumps() == dump_json(database_to_json(db))


def test_persist_holds_one_item_at_a_time_not_the_document(tmp_path):
    """The traced peak of persist does not grow with the database: 24
    copies of a record cost what 2 do, within a small constant."""
    files = [pfile(f"lib/f{j}.lean", names=tuple(f"f{j}.p{k}" for k in range(10)))
             for j in range(8)]
    theorems = [theorem(f"t{k}", path="lib/f0.lean", tactics=(tactic("f0.p0"),))
                for k in range(50)]

    def peak(copies):
        db = DynamicDatabase([make_repo(url=f"fixture://r{i}", theorems=theorems, files=files)
                              for i in range(copies)])
        tracemalloc.start()
        try:
            db.persist(tmp_path / "db.json")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(2)
    large = peak(24)
    assert (tmp_path / "db.json").stat().st_size > 500_000
    assert large - small < 64 * 1024

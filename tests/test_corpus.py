"""Corpus generation: cardinalities, determinism, relevance ground truth."""

import gc
import random
import re
import shutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsearch import corpus
from rootsearch.corpus import (
    ANCHOR_ROOTS,
    CorpusManifest,
    CorpusSpec,
    Document,
    MANIFEST_NAME,
    QUERIES_NAME,
    ROOT_INVENTORY,
    gc_paused,
    generate_corpus,
    load_manifest,
    load_patterns,
    manifest_digest,
    relevant_set,
    tree_digest,
)
from rootsearch.errors import CorpusSpecError, UnknownRoot
from rootsearch.index import IndexMode, build_index
from rootsearch.morphology import DerivationPattern, PatternInventory, derive, is_root
from tests.conftest import MICRO_SPEC


class TestCorpusSpec:
    def test_default_totals(self):
        spec = CorpusSpec()
        spec.validate()
        assert spec.total_documents == 10_000

    def test_root_count_invariant_named_in_error(self):
        with pytest.raises(CorpusSpecError, match="root_count must equal"):
            CorpusSpec(root_count=5, peer_count=4, roots_per_peer=1).validate()

    def test_superpeer_divisibility_named_in_error(self):
        with pytest.raises(CorpusSpecError, match="divisible by superpeer_count"):
            CorpusSpec(
                root_count=9, peer_count=3, roots_per_peer=3, superpeer_count=2
            ).validate()

    def test_rejects_zero_counts(self):
        with pytest.raises(CorpusSpecError):
            CorpusSpec(words_per_root=0).validate()


class TestDefaultCorpus:
    def test_total_documents(self, manifest):
        assert len(manifest.documents) == 10_000

    def test_exactly_100_per_root(self, manifest):
        counts = Counter(doc.root for doc in manifest.documents)
        assert len(counts) == 100
        assert set(counts.values()) == {100}

    def test_exactly_2500_per_peer(self, manifest):
        counts = Counter(doc.peer_id for doc in manifest.documents)
        assert counts == {f"peer-{i}": 2500 for i in range(1, 5)}

    def test_5000_docs_and_50_roots_per_superpeer(self, manifest, overlay_simple):
        children = {}
        for peer, sp in overlay_simple.parent.items():
            children[sp] = children.get(sp, ()) + (peer,)
        assert children == {"sp-1": ("peer-1", "peer-2"), "sp-2": ("peer-3", "peer-4")}
        for peers in children.values():
            docs = [d for d in manifest.documents if d.peer_id in peers]
            assert len(docs) == 5000
            assert len({d.root for d in docs}) == 50

    def test_words_and_ids_unique(self, manifest):
        words = [d.word for d in manifest.documents]
        ids = [d.doc_id for d in manifest.documents]
        assert len(set(words)) == len(words)
        assert len(set(ids)) == len(ids)

    def test_roots_assigned_in_sorted_blocks(self, manifest):
        assert list(manifest.roots) == sorted(manifest.roots)
        for i, root in enumerate(manifest.roots):
            expected_peer = f"peer-{i // 25 + 1}"
            assert manifest.peers_of_root[root] == {expected_peer}

    def test_anchor_roots_always_selected(self, manifest):
        for root in ANCHOR_ROOTS:
            assert root in manifest.roots

    def test_query_set_shape(self, manifest):
        assert len(manifest.queries) == 100
        roots = [q.root for q in manifest.queries]
        assert len(set(roots)) == 100
        vocabulary = {d.word for d in manifest.documents}
        for query in manifest.queries:
            assert query.word in vocabulary
            assert manifest.lexicon.root_of(query.word) == query.root


class TestFilesOnDisk:
    def test_manifest_and_queries_present(self, corpus_dir):
        # a corpus is exactly its two TSV files
        assert sorted(p.name for p in corpus_dir.iterdir()) == [MANIFEST_NAME, QUERIES_NAME]

    def test_default_corpus_bytes_are_pinned(self, corpus_dir):
        # every path and byte, trailing newlines and encoding included
        assert tree_digest(corpus_dir) == (
            "52c7b9321534289afa853218cdfd3f74b0c3536c0ace89aba0d6b307e21eb305"
        )
        assert manifest_digest(corpus_dir) == (
            "abda0ffc775531ef5cda8e8ab380eb724d630f047a0d15db6db2b758c937b272"
        )

    def test_a_corpus_with_clitic_fixups_is_pinned(self, tmp_path, monkeypatch):
        # 50 of the 100 templates for all 120 packaged roots: two words clash with
        # another root's and take a clitic, the second past a variant already held
        fixups = []
        disambiguate = corpus._disambiguate
        monkeypatch.setattr(corpus, "_disambiguate",
                            lambda word, used: fixups.append(disambiguate(word, used)) or fixups[-1])
        spec = CorpusSpec(root_count=120, words_per_root=50, roots_per_peer=30, seed=1)
        manifest = generate_corpus(spec, tmp_path)
        assert [w[-2:] for w in fixups] == ["ها", "هم"]
        assert set(fixups) <= set(manifest.doc_words)
        assert manifest_digest(tmp_path) == (
            "3bc1baeddd3db2c33290fb47148d6df18bd85879eb57dad2eee834ca15d7f063"
        )

    def test_failed_write_leaves_no_manifest(self, tmp_path):
        # a directory where queries.tsv goes: the .part file cannot be renamed onto it
        blocked = tmp_path / "c" / QUERIES_NAME
        blocked.mkdir(parents=True)
        with pytest.raises(OSError) as info:
            generate_corpus(MICRO_SPEC, tmp_path / "c")
        assert str(blocked) in str(info.value)
        assert not (tmp_path / "c" / MANIFEST_NAME).exists()
        assert not (tmp_path / "c" / f"{QUERIES_NAME}.part").exists()


class TestGcPaused:
    """The three builds that make one tracked object per row run paused:
    ``load_manifest``, ``CorpusManifest.documents`` and ``build_index``."""

    def test_build_runs_with_the_collector_off_then_restores_it(
        self, micro_corpus, monkeypatch
    ):
        corpus_dir, _ = micro_corpus
        assert gc_paused(gc.isenabled)() is False
        assert gc.isenabled()
        # the collector's state as each build reads its input
        states = []
        read_text = corpus._read_text

        def reading(path):
            states.append(gc.isenabled())
            return read_text(path)

        def rows_read(rows):
            for row in rows:
                states.append(gc.isenabled())
                yield row

        monkeypatch.setattr(corpus, "_read_text", reading)
        manifest = load_manifest(corpus_dir)  # reads manifest.tsv, then queries.tsv
        assert states == [False, False] and gc.isenabled()
        manifest.doc_ids = rows_read(manifest.doc_ids)  # a generator, read in the build
        rows = manifest.documents
        assert states[2:] == [False] * len(rows) and gc.isenabled()
        del states[:]
        build_index(rows_read(rows), IndexMode.SIMPLE, manifest.lexicon)
        assert states == [False] * len(rows) and gc.isenabled()

    def test_failed_load_restores_the_collector(self, micro_corpus, tmp_path):
        corpus_dir, _ = micro_corpus
        shutil.copytree(corpus_dir, tmp_path / "c")
        (tmp_path / "c" / MANIFEST_NAME).write_text("", encoding="utf-8")
        with pytest.raises(CorpusSpecError, match="empty file"):
            load_manifest(tmp_path / "c")
        assert gc.isenabled()
        manifest = load_manifest(corpus_dir)
        manifest.doc_words = None
        with pytest.raises(TypeError):
            manifest.documents
        assert gc.isenabled()
        with pytest.raises(ValueError, match="not in lexicon"):
            build_index([Document("d0", "زخرف", "زخرف", "peer-1")], IndexMode.ADVANCED,
                        manifest.lexicon)
        assert gc.isenabled()

    def test_collector_the_caller_disabled_stays_off(self, micro_corpus):
        corpus_dir, _ = micro_corpus
        gc.disable()
        try:
            manifest = load_manifest(corpus_dir)
            build_index(manifest.documents, IndexMode.ADVANCED, manifest.lexicon)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_wrapped_name_and_doc_are_kept(self):
        assert load_manifest.__name__ == "load_manifest"
        assert load_manifest.__doc__.startswith("Reload a generated corpus")
        assert build_index.__name__ == "build_index"
        assert build_index.__doc__.startswith("Build an index over ``docs``")
        documents = CorpusManifest.documents.fget
        assert documents.__name__ == "documents"
        assert documents.__doc__.startswith("The columns zipped into rows")


class TestMicroCorpus:
    def test_spec_arithmetic(self, micro_corpus):
        _, manifest = micro_corpus
        assert len(manifest.documents) == 6
        assert Counter(d.root for d in manifest.documents) == {
            root: 3 for root in manifest.roots
        }
        assert Counter(d.peer_id for d in manifest.documents) == {
            "peer-1": 3,
            "peer-2": 3,
        }


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_corpus(MICRO_SPEC, a)
        generate_corpus(MICRO_SPEC, b)
        assert manifest_digest(a) == manifest_digest(b)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        spec_a = CorpusSpec(
            root_count=4, words_per_root=5, peer_count=2,
            superpeer_count=1, roots_per_peer=2, seed=1,
        )
        spec_b = CorpusSpec(
            root_count=4, words_per_root=5, peer_count=2,
            superpeer_count=1, roots_per_peer=2, seed=2,
        )
        generate_corpus(spec_a, tmp_path / "a")
        generate_corpus(spec_b, tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


def _drawn(spec, pool, inventory):
    """The generator's draws, replayed: each selected root in sorted order with
    the templates drawn for it, in order. Per root the generator makes one
    ``rng.sample`` of the templates and one ``rng.randrange`` for the query word."""
    rng = random.Random(spec.seed)
    for root in sorted(corpus._select_roots(spec, pool, rng)):
        yield root, rng.sample(inventory.patterns, spec.words_per_root)
        rng.randrange(spec.words_per_root)


def _first_error(spec, pool, inventory):
    """The error of the first (root, template) in drawn order that ``derive``
    rejects or that repeats a surface of its root's earlier templates."""
    for root, chosen in _drawn(spec, pool, inventory):
        surfaces = set()
        for pattern in chosen:
            try:
                word = derive(root, pattern)
            except ValueError as err:
                return err
            if word in surfaces:
                return CorpusSpecError(
                    f"root {root}: pattern {pattern.pattern_id} repeats an earlier surface form {word!r}"
                )
            surfaces.add(word)
    raise AssertionError("every draw derives")


class TestGenerationErrors:
    def test_insufficient_roots(self, tmp_path):
        spec = CorpusSpec(
            root_count=4, words_per_root=2, peer_count=2,
            superpeer_count=1, roots_per_peer=2, seed=1,
        )
        with pytest.raises(CorpusSpecError, match="^root inventory has 3 roots, spec needs 4$"):
            generate_corpus(spec, tmp_path, root_pool=("اكل", "لعب", "كتب"))

    def test_words_per_root_beyond_inventory(self, tmp_path):
        spec = CorpusSpec(
            root_count=2, words_per_root=101, peer_count=2,
            superpeer_count=1, roots_per_peer=1, seed=1,
        )
        with pytest.raises(CorpusSpecError, match="template inventory"):
            generate_corpus(spec, tmp_path)

    def test_pattern_collision_detected(self, tmp_path):
        # for a root starting with alef these two templates coincide
        broken = PatternInventory(
            "vx",
            (
                DerivationPattern("p1", "اC1C2C3"),
                DerivationPattern("p2", "C1اC2C3"),
            ),
        )
        spec = CorpusSpec(
            root_count=2, words_per_root=2, peer_count=2,
            superpeer_count=1, roots_per_peer=1, seed=1,
        )
        with pytest.raises(
            CorpusSpecError, match="^root اكل: pattern p2 repeats an earlier surface form 'ااكل'$"
        ):
            generate_corpus(spec, tmp_path, inventory=broken)

    def test_cross_root_collision_resolved(self, tmp_path):
        # وC1C2C3 of عود and C1C2وC3 of وعد both surface as وعود; the
        # later root must get a disambiguating clitic appended
        inventory = PatternInventory(
            "vx",
            (
                DerivationPattern("p1", "وC1C2C3"),
                DerivationPattern("p2", "C1C2وC3"),
            ),
        )
        spec = CorpusSpec(
            root_count=2, words_per_root=2, peer_count=2,
            superpeer_count=1, roots_per_peer=1, seed=1,
        )
        manifest = generate_corpus(
            spec, tmp_path, inventory=inventory, root_pool=("عود", "وعد")
        )
        words = [d.word for d in manifest.documents]
        assert len(set(words)) == 4  # وعود claimed once, the clash got a clitic
        assert "وعود" in words
        for doc in manifest.documents:
            assert manifest.lexicon.root_of(doc.word) == doc.root

    def test_disambiguated_word_does_not_trip_collision_check(self, tmp_path):
        # وعد's clash on وعود gets a clitic (وعودها); its own later template
        # C1C2وC3ها also surfaces وعودها, which must disambiguate again, not
        # be misread as a broken template set
        inventory = PatternInventory(
            "vx",
            (
                DerivationPattern("p1", "وC1C2C3"),
                DerivationPattern("p2", "C1C2وC3"),
                DerivationPattern("p3", "C1C2وC3ها"),
            ),
        )
        spec = CorpusSpec(
            root_count=2, words_per_root=3, peer_count=2,
            superpeer_count=1, roots_per_peer=1, seed=1,
        )
        manifest = generate_corpus(
            spec, tmp_path, inventory=inventory, root_pool=("عود", "وعد")
        )
        words = [d.word for d in manifest.documents]
        assert len(set(words)) == 6
        for doc in manifest.documents:
            assert manifest.lexicon.root_of(doc.word) == doc.root

    @staticmethod
    def _raised(out, spec, pool, inventory):
        """What ``generate_corpus`` raises, checked against ``_first_error``;
        neither corpus file is written."""
        expected = _first_error(spec, pool, inventory)
        with pytest.raises(ValueError) as info:
            generate_corpus(spec, out, inventory, pool)
        assert (type(info.value), str(info.value)) == (type(expected), str(expected))
        assert not (out / MANIFEST_NAME).exists()
        assert not (out / QUERIES_NAME).exists()
        return info.value

    def test_a_non_root_in_the_pool(self, tmp_path, patterns):
        # a taa marbuta is no normalized letter; sorted, the word comes after three roots
        pool = ("كتب", "درس", "لعب", "هرة")
        error = self._raised(tmp_path, CorpusSpec(4, 5, 4, 2, 1), pool, patterns)
        assert str(error) == "not a normalized 3/4-letter root: 'هرة'"

    def test_a_4_letter_root_against_3_slot_templates(self, tmp_path, patterns):
        pool = ("دحرج", "كتب", "درس", "علم")
        error = self._raised(tmp_path, CorpusSpec(4, 5, 4, 2, 1), pool, patterns)
        assert re.fullmatch(r"pattern \S+ has 3 slots, root 'دحرج' has 4 letters", str(error))

    def test_the_first_failing_template_in_drawn_order_decides(self, tmp_path):
        # a and b make one surface and c has four slots: c raises if it is drawn
        # before the later of a and b, and that one's repeat raises otherwise
        inventory = PatternInventory("t", (
            DerivationPattern("a", "مC1C2C3"),
            DerivationPattern("b", "مC1C2C3"),
            DerivationPattern("c", "C1C2C3C4"),
            DerivationPattern("d", "تC1C2C3"),
        ))
        spec = CorpusSpec(root_count=1, words_per_root=4, peer_count=1, superpeer_count=1,
                          roots_per_peer=1)
        kinds = {
            type(self._raised(tmp_path / str(seed), spec._replace(seed=seed), ("كتب",), inventory))
            for seed in range(12)
        }
        assert kinds == {ValueError, CorpusSpecError}


class TestRelevantSet:
    def test_matches_raw_manifest_scan(self, corpus_dir, manifest):
        # independent oracle: group the manifest file's root column directly
        groups: dict[str, set[str]] = {}
        lines = (corpus_dir / MANIFEST_NAME).read_text("utf-8").splitlines()[1:]
        for line in lines:
            doc_id, _word, root, _peer = line.split("\t")
            groups.setdefault(root, set()).add(doc_id)
        for query in manifest.queries:
            assert relevant_set(query.word, manifest) == groups[query.root]

    def test_size_is_100_for_every_default_query(self, manifest):
        for query in manifest.queries:
            assert len(relevant_set(query.word, manifest)) == 100

    def test_own_document_is_relevant(self, manifest):
        doc = manifest.documents[1234]
        assert doc.doc_id in relevant_set(doc.word, manifest)

    def test_root_absent_from_corpus_is_empty(self, manifest):
        assert relevant_set("زخرف", manifest) == frozenset()

    def test_unresolvable_word_raises(self, manifest):
        with pytest.raises(UnknownRoot):
            relevant_set("فه", manifest)

    def test_vocalized_query_equals_bare(self, manifest):
        query = manifest.queries[5]
        vocalized = "".join(ch + "َ" for ch in query.word)
        assert relevant_set(vocalized, manifest) == relevant_set(query.word, manifest)

    def test_decorated_hamza_query_resolves_to_anchor_group(self, manifest):
        found = tuple(sorted(relevant_set("المأكول", manifest)))
        assert found == manifest.docs_by_root["اكل"]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    """4 roots of 5 words on 4 peers under 2 super-peers."""
    out = tmp_path_factory.mktemp("corpus-tiny")
    spec = CorpusSpec(
        root_count=4, words_per_root=5, peer_count=4, superpeer_count=2, roots_per_peer=1, seed=1
    )
    generate_corpus(spec, out)
    return out


class TestLoadManifest:
    def test_round_trip(self, corpus_dir, manifest):
        loaded = load_manifest(corpus_dir)
        assert loaded.spec == manifest.spec
        assert loaded.documents == manifest.documents
        assert loaded.queries == manifest.queries
        assert loaded.roots == manifest.roots
        assert loaded.patterns_version == manifest.patterns_version

    def test_each_root_and_peer_id_is_one_shared_string(self, corpus_dir):
        loaded = load_manifest(corpus_dir)
        assert len({id(d.root) for d in loaded.documents}) == len(loaded.roots)
        peer_ids = {d.peer_id for d in loaded.documents}
        assert len({id(d.peer_id) for d in loaded.documents}) == len(peer_ids)

    def test_query_root_without_documents_names_its_line(self, micro_corpus, tmp_path):
        corpus_dir, _ = micro_corpus
        shutil.copytree(corpus_dir, tmp_path / "c")
        path = tmp_path / "c" / QUERIES_NAME
        lines = path.read_text("utf-8").splitlines()
        query_id, word, _ = lines[1].split("\t")
        lines[1] = "\t".join([query_id, word, "زخرف"])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:2: query root 'زخرف' has no documents"

    def test_unknown_peer_id_names_its_line(self, tiny_corpus, tmp_path):
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        assert lines[2].endswith("\tpeer-1")
        # a blank line is skipped, and counted in the line number
        lines[2:3] = ["", lines[2][: -len("peer-1")] + "peer-9"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:4: peer id 'peer-9' is not one of peer-1..peer-4"

    def test_short_row_then_long_row_names_the_short_one(self, tiny_corpus, tmp_path):
        # line 3 hands its peer id to line 4: 3 fields, then 5, whose cells
        # would still fill whole rows if the two were split as one text
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        lines[2], peer_id = lines[2].rsplit("\t", 1)
        lines[3] = f"{peer_id}\t{lines[3]}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:3: expected 4 tab-separated fields, got 3"

    @pytest.mark.parametrize(
        "edit",
        [lambda w: w[:1] + "\u064e" + w[1:], lambda w: w + "ة", lambda w: w[:1] + "ـ" + w[1:],
         lambda w: "hello"],
        ids=["diacritic", "taa-marbuta", "tatweel", "latin"],
    )
    def test_word_normalize_would_change_names_its_line(self, tiny_corpus, tmp_path, edit):
        # normalize folds the query of that word onto another key, so the
        # document could never be found by its own word
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        doc_id, word, rest = lines[3].split("\t", 2)
        lines[3] = "\t".join([doc_id, edit(word), rest])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == (
            f"{path}:4: word {edit(word)!r} is not a normalized Arabic word"
        )

    def test_whitespace_only_line_is_skipped(self, tiny_corpus, tmp_path):
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        lines.insert(3, " \t\u2028\t\t")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded, expected = load_manifest(tmp_path / "c"), load_manifest(tiny_corpus)
        assert loaded.documents == expected.documents

    def test_crlf_line_ends_are_accepted_and_counted_once(self, tiny_corpus, tmp_path):
        shutil.copytree(tiny_corpus, tmp_path / "c")
        for name in (MANIFEST_NAME, QUERIES_NAME):
            path = tmp_path / "c" / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded, expected = load_manifest(tmp_path / "c"), load_manifest(tiny_corpus)
        assert loaded.spec == expected.spec
        assert loaded.documents == expected.documents
        assert loaded.queries == expected.queries
        lines = path.read_bytes().split(b"\r\n")
        lines[4] = b"\xff" + lines[4]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:5: not UTF-8: byte 0xff (invalid start byte)"

    def test_peer_past_its_share_names_its_line(self, tiny_corpus, tmp_path):
        # line 3 moves from peer-1 to peer-2, whose own five rows are lines
        # 7-11: line 11 is its sixth
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        assert [line.rsplit("\t", 1)[1] for line in lines[1:11]] == ["peer-1"] * 5 + ["peer-2"] * 5
        lines[2] = lines[2][: -len("peer-1")] + "peer-2"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:11: peer peer-2 holds more than its 5 documents"

    @pytest.mark.parametrize(
        "field, message",
        [
            ("super_peers=3", "peer_count must be divisible by superpeer_count (4 % 3 != 0)"),
            ("super_peers=0", "all corpus spec counts must be >= 1"),
            ("peers=0", "all corpus spec counts must be >= 1"),
        ],
        ids=["super-peers-3", "super-peers-0", "peers-0"],
    )
    def test_header_counts_that_break_the_spec_name_line_1(
        self, tiny_corpus, tmp_path, field, message
    ):
        # peer-4 under no super-peer, a division by zero, no peer ids: all
        # rejected before any row is read
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        name = field.partition("=")[0] + "="
        header = [field if part.startswith(name) else part for part in lines[0].split("\t")]
        assert field in header
        lines[0] = "\t".join(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize(
        "part, problem",
        [
            ("seed=7", "header field 'seed' repeats"),
            ("junk", "header field 'junk' is not key=value"),
        ],
        ids=["repeated-key", "no-equals-sign"],
    )
    @pytest.mark.parametrize("name", [MANIFEST_NAME, QUERIES_NAME])
    def test_repeated_or_malformed_header_field_names_line_1(
        self, tiny_corpus, tmp_path, part, problem, name
    ):
        # appended to the queries file alone, or to both files, where the
        # manifest's is read first; the last of two fields no longer wins
        shutil.copytree(tiny_corpus, tmp_path / "c")
        for changed in {name, QUERIES_NAME}:
            path = tmp_path / "c" / changed
            lines = path.read_text("utf-8").splitlines()
            lines[0] += f"\t{part}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{tmp_path / 'c' / name}:1: {problem}"

    @pytest.mark.parametrize("extra", ["copy-of-line-3", "valid-row"])
    def test_an_extra_row_names_its_line(self, tiny_corpus, tmp_path, extra):
        # a copy of line 3 repeats its doc id; line 2 under a new doc id passes
        # every other rule, but puts peer-1 past its share
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        if extra == "copy-of-line-3":
            lines.append(lines[2])
            doc_id = lines[2].split("\t", 1)[0]
            message = f"doc id {doc_id!r} repeats line 3"
        else:
            lines.append("d99999\t" + lines[1].split("\t", 1)[1])
            message = "peer peer-1 holds more than its 5 documents"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:22: {message}"

    def test_a_missing_row_is_named_by_the_count(self, tiny_corpus, tmp_path):
        # every row left passes, so the count is named, with no line
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / MANIFEST_NAME
        lines = path.read_text("utf-8").splitlines()
        del lines[2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == (
            f"{path}: 19 documents, header says roots=4 x words_per_root=5 = 20"
        )

    def test_repeated_query_id_names_both_lines(self, tiny_corpus, tmp_path):
        shutil.copytree(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / QUERIES_NAME
        lines = path.read_text("utf-8").splitlines()
        query_id = lines[1].split("\t")[0]
        lines[3] = "\t".join([query_id, *lines[3].split("\t")[1:]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(tmp_path / "c")
        assert str(info.value) == f"{path}:4: query id {query_id!r} repeats line 2"


# a field of one line: no tab, and no line end ("\n", or "\r", which is read as one)
_cells = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
)
# what str.splitlines() breaks a line at besides "\n" and "\r": no line end
# in a manifest, but whitespace in a field
_LINE_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# every str.isspace() code point but "\t", "\n" and "\r": those that the
# line split and the tab split leave in a field
_FIELD_SPACES = (
    "\x0b\x0c\x1c\x1d\x1e\x1f\x85 \xa0\u1680\u2028\u2029\u202f\u205f\u3000"
    + "".join(map(chr, range(0x2000, 0x200B)))
)
# what ``normalize`` deletes or folds, and a letter outside the Arabic block
_UNNORMALIZED = ("\u064e", "\u0670", "ـ", "ة", "ى", "أ", "x")
_FAULTS = (
    "none", "field-count", "empty-field", "whitespace", "line-separator", "repeated-doc-id",
    "bad-root", "bad-peer", "moved-peer", "two-roots", "unnormalized",
)


@st.composite
def _manifest_faults(draw, documents, peer_ids):
    """The rows of ``documents``, split into fields, with one fault of a
    drawn kind at a drawn row, and the line the error must name (None for
    no fault)."""
    rows = [list(doc) for doc in documents]
    kind = draw(st.sampled_from(_FAULTS))
    if kind == "none":
        return rows, None
    i = draw(st.integers(1 if kind == "repeated-doc-id" else 0, len(rows) - 1))
    line = i + 2
    fields = rows[i]
    if kind == "field-count":
        width = draw(st.sampled_from([1, 2, 3, 5, 6]))
        rows[i] = (fields + draw(st.lists(_cells, min_size=2, max_size=2)))[:width]
    elif kind == "empty-field":
        fields[draw(st.integers(0, 3))] = ""
    elif kind == "whitespace":
        column = draw(st.integers(0, 1))
        at = draw(st.integers(0, len(fields[column])))
        space = draw(st.sampled_from(_FIELD_SPACES))
        fields[column] = fields[column][:at] + space + fields[column][at:]
    elif kind == "line-separator":
        # in any field, or at the end of the row
        column = draw(st.integers(0, 3))
        at = draw(st.integers(0, len(fields[column])))
        separator = draw(st.sampled_from(_LINE_SEPARATORS))
        fields[column] = fields[column][:at] + separator + fields[column][at:]
    elif kind == "unnormalized":
        fields[1] = _unnormalized(draw, fields[1])
    elif kind == "repeated-doc-id":
        fields[0] = rows[draw(st.integers(0, i - 1))][0]
    elif kind == "bad-root":
        fields[2] = draw(_cells.filter(lambda cell: not is_root(cell)))
    elif kind == "bad-peer":
        fields[3] = draw(_cells.filter(lambda cell: cell not in peer_ids))
    elif kind == "moved-peer":
        # to another peer the header names: the error names the first row
        # past that peer's share
        fields[3] = draw(st.sampled_from([p for p in peer_ids if p != fields[3]]))
        share = len(rows) // len(peer_ids)
        held = Counter()
        for k, row in enumerate(rows):
            held[row[3]] += 1
            if held[row[3]] > share:
                line = k + 2
                break
    else:  # two-roots: the word of a row filed under another root
        j = draw(st.sampled_from([j for j, row in enumerate(rows) if row[2] != fields[2]]))
        fields[1] = rows[j][1]
        line = max(i, j) + 2
    return rows, line


def _unnormalized(draw, word):
    """``word`` with a drawn character of ``_UNNORMALIZED`` at a drawn place."""
    at = draw(st.integers(0, len(word)))
    return word[:at] + draw(st.sampled_from(_UNNORMALIZED)) + word[at:]


# the faults that make their own row bad, whatever the other rows hold
_ROW_FAULTS = ("bad-root", "bad-peer", "whitespace", "unnormalized", "empty-field", "field-count")


@st.composite
def _two_faults(draw, documents, peer_ids):
    """The rows of ``documents``, split into fields, with a fault of a drawn
    row-local kind at each of two drawn rows, and the line of the first."""
    rows = [list(doc) for doc in documents]
    at = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    for i in at:
        fields = rows[i]
        kind = draw(st.sampled_from(_ROW_FAULTS))
        if kind == "bad-root":
            fields[2] = draw(_cells.filter(lambda cell: not is_root(cell)))
        elif kind == "bad-peer":
            fields[3] = draw(_cells.filter(lambda cell: cell not in peer_ids))
        elif kind == "whitespace":
            column = draw(st.integers(0, 1))
            k = draw(st.integers(0, len(fields[column])))
            space = draw(st.sampled_from(_FIELD_SPACES))
            fields[column] = fields[column][:k] + space + fields[column][k:]
        elif kind == "unnormalized":
            fields[1] = _unnormalized(draw, fields[1])
        elif kind == "empty-field":
            fields[draw(st.integers(0, 3))] = ""
        else:
            width = draw(st.sampled_from([1, 2, 3, 5, 6]))
            rows[i] = (fields + draw(st.lists(_cells, min_size=2, max_size=2)))[:width]
    return rows, min(at) + 2


class TestLoadManifestFaults:
    """``load_manifest`` finds faults by scans of sets and of the columns, and
    names their line with ``_checked_rows``: the two agree on one fault of
    each kind at any row of the micro corpus, and on none."""

    @pytest.fixture(scope="class")
    def corpus(self, micro_corpus, tmp_path_factory):
        corpus_dir, manifest = micro_corpus
        copy = tmp_path_factory.mktemp("micro-faults") / "c"
        shutil.copytree(corpus_dir, copy)
        header = (copy / MANIFEST_NAME).read_text("utf-8").splitlines()[0]
        return copy, manifest, header

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_fault_is_named_by_its_line(self, corpus, data):
        corpus_dir, manifest, header = corpus
        path = corpus_dir / MANIFEST_NAME
        rows, line = data.draw(
            _manifest_faults(manifest.documents, manifest.spec.peer_ids()), label="fault"
        )
        path.write_text(
            "\n".join([header, *("\t".join(row) for row in rows)]) + "\n", encoding="utf-8"
        )
        if line is None:
            loaded = load_manifest(corpus_dir)
            assert loaded.spec == manifest.spec
            assert loaded.documents == manifest.documents
            assert loaded.queries == manifest.queries
            assert loaded.roots == manifest.roots
            assert loaded.patterns_version == manifest.patterns_version
            return
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(corpus_dir)
        assert str(info.value).startswith(f"{path}:{line}: ")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_of_two_faults_the_first_line_is_named(self, corpus, data):
        # a field-count fault on a later row does not win over another fault
        corpus_dir, manifest, header = corpus
        path = corpus_dir / MANIFEST_NAME
        rows, line = data.draw(
            _two_faults(manifest.documents, manifest.spec.peer_ids()), label="faults"
        )
        path.write_text(
            "\n".join([header, *("\t".join(row) for row in rows)]) + "\n", encoding="utf-8"
        )
        with pytest.raises(CorpusSpecError) as info:
            load_manifest(corpus_dir)
        assert str(info.value).startswith(f"{path}:{line}: ")

"""Derivation templates, root extraction and the lexicon."""

import pytest

from rootsearch.corpus import ROOT_INVENTORY
from rootsearch.errors import ArityMismatch, UnknownRoot
from rootsearch.morphology import (
    DerivationPattern,
    RootLexicon,
    derive,
    extract_root,
    light_stem,
    load_patterns,
    same_root,
)
from rootsearch.normalize import normalize


class TestPatternInventory:
    def test_loads_100_unique_templates(self, patterns):
        assert len(patterns) == 100
        assert len({p.template for p in patterns}) == 100
        assert len({p.pattern_id for p in patterns}) == 100

    def test_version(self, patterns):
        assert patterns.version == "v1"

    def test_all_templates_are_triliteral(self, patterns):
        assert all(p.arity == 3 for p in patterns)

    def test_find_template(self, patterns):
        assert patterns.find_template("يC1C2C3ون").arity == 3
        with pytest.raises(KeyError):
            patterns.find_template("C1C2")

    def test_rejects_gapped_or_missing_slots(self):
        from rootsearch.morphology import _validate_pattern

        with pytest.raises(ValueError):
            _validate_pattern(DerivationPattern("px", "C1C3"))
        with pytest.raises(ValueError):
            _validate_pattern(DerivationPattern("px", "ابت"))

    def test_load_rejects_duplicate_templates(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_text(
            "# rootsearch-patterns v0\np001\tC1C2C3\np002\tC1C2C3\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            load_patterns(bad)

    def test_load_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_text("p001\tC1C2C3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_patterns(bad)


class TestDerive:
    def test_present_plural_of_anchor_roots(self, patterns):
        plural = patterns.find_template("يC1C2C3ون")
        assert derive("لعب", plural) == "يلعبون"
        assert derive("اكل", plural) == "ياكلون"

    def test_definite_passive_participle(self, patterns):
        participle = patterns.find_template("المC1C2وC3")
        assert derive("اكل", participle) == "الماكول"

    def test_deterministic(self, patterns):
        for pattern in patterns.patterns[:10]:
            assert derive("كتب", pattern) == derive("كتب", pattern)

    def test_injective_per_root_over_full_inventory(self, patterns):
        # brute force: every built-in root yields 100 pairwise-distinct words
        for root in ROOT_INVENTORY:
            words = [derive(root, p) for p in patterns]
            assert len(set(words)) == len(words), root

    def test_quadriliteral_root_with_four_slot_template(self):
        quad = DerivationPattern("q1", "يC1C2C3C4")
        assert quad.arity == 4
        assert derive("دحرج", quad) == "يدحرج"

    def test_arity_mismatch(self, patterns):
        with pytest.raises(ArityMismatch):
            derive("دحرج", patterns.find_template("C1C2C3"))
        with pytest.raises(ArityMismatch):
            derive("لعب", DerivationPattern("q1", "يC1C2C3C4"))

    def test_rejects_unnormalized_root(self, patterns):
        with pytest.raises(ValueError):
            derive("أكل", patterns.find_template("C1C2C3"))

    def test_rejects_short_root(self, patterns):
        with pytest.raises(ValueError):
            derive("كب", patterns.find_template("C1C2C3"))


class TestLightStem:
    @pytest.mark.parametrize(
        ("word", "stem"),
        [
            ("والكتاب", "كتاب"),
            ("وبصرت", "بصر"),
            ("بالمكتوب", "مكتوب"),
            ("لعبها", "لعب"),
            ("للعلمات", "علم"),
            ("كتب", "كتب"),
        ],
    )
    def test_strips_clitic_layers(self, word, stem):
        assert light_stem(word) == stem

    def test_never_strips_below_three_letters(self):
        assert len(light_stem("وضع")) >= 3
        assert light_stem("وضع") == "وضع"


class TestExtractRoot:
    def test_corpus_word_resolves_exactly(self, lexicon):
        assert extract_root("يلعبون", lexicon) == "لعب"

    def test_vocalized_definite_participle(self, lexicon):
        assert extract_root(normalize("المأكول"), lexicon) == "اكل"

    def test_bare_root_is_its_own_root(self, lexicon):
        assert extract_root("لعب", lexicon) == "لعب"

    def test_out_of_vocabulary_stems_to_corpus_root(self, manifest):
        # decoration not produced by any template, so only stemming resolves it
        word = "ولل" + "اكل"
        assert word not in manifest.lexicon
        assert extract_root(word, manifest.lexicon) == "اكل"

    def test_unknown_word_with_plausible_residue(self, lexicon):
        assert extract_root("زخرف", lexicon) == "زخرف"

    def test_unknown_root_raises(self, lexicon):
        with pytest.raises(UnknownRoot):
            extract_root("فه", lexicon)


class TestSameRoot:
    def test_reflexive(self, lexicon):
        assert same_root("يلعبون", "يلعبون", lexicon)

    def test_word_and_its_root(self, lexicon):
        assert same_root("يلعبون", "لعب", lexicon)
        assert same_root("لعب", "يلعبون", lexicon)

    def test_distinct_groups(self, lexicon):
        assert not same_root("يلعبون", "ياكلون", lexicon)

    def test_propagates_unknown_root(self, lexicon):
        with pytest.raises(UnknownRoot):
            same_root("فه", "لعب", lexicon)


class TestRootLexicon:
    def test_maps_are_mutually_consistent(self, manifest):
        lex = manifest.lexicon
        for root in manifest.roots:
            for word in lex.words_of(root):
                assert lex.root_of(word) == root
        for doc in manifest.documents[::53]:
            assert doc.word in lex.words_of(lex.root_of(doc.word))

    def test_conflicting_add_rejected(self):
        lex = RootLexicon()
        lex.add("يلعبون", "لعب")
        with pytest.raises(ValueError):
            lex.add("يلعبون", "اكل")

    def test_duplicate_add_is_idempotent(self):
        lex = RootLexicon()
        lex.add("يلعبون", "لعب")
        lex.add("يلعبون", "لعب")
        assert len(lex) == 1


    def test_words_of_is_sorted_and_sees_later_adds(self):
        lex = RootLexicon()
        lex.add("يلعبون", "لعب")
        assert lex.words_of("لعب") == ("يلعبون",)
        lex.add("لاعب", "لعب")
        lex.add("ياكلون", "اكل")
        assert lex.words_of("لعب") == ("لاعب", "يلعبون")
        assert lex.words_of("زخرف") == ()

    def test_roots_of_resolves_distinct_roots(self):
        lex = RootLexicon()
        for word in ("يلعبون", "لاعب"):
            lex.add(word, "لعب")
        assert lex.roots_of(("يلعبون", "لاعب", "زخرف")) == {"لعب", None}


class TestRoundTripAndPartition:
    def test_round_trip_full_corpus(self, manifest):
        lex = manifest.lexicon
        for doc in manifest.documents:
            assert extract_root(doc.word, lex) == doc.root

    def test_equivalence_classes_match_manifest_groups(self, manifest):
        lex = manifest.lexicon
        by_extracted: dict[str, set[str]] = {}
        for word in lex.vocabulary():
            by_extracted.setdefault(extract_root(word, lex), set()).add(word)
        by_manifest: dict[str, set[str]] = {}
        for doc in manifest.documents:
            by_manifest.setdefault(doc.root, set()).add(doc.word)
        assert by_extracted == by_manifest

    def test_same_root_pairwise_on_sample(self, manifest):
        # brute-force pair check on a slice of the vocabulary
        sample = manifest.documents[::251]
        lex = manifest.lexicon
        for a in sample:
            for b in sample:
                assert same_root(a.word, b.word, lex) == (a.root == b.root)

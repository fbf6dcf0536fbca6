"""Derivation templates, root extraction and the lexicon."""

import pytest

from rootsearch.corpus import ROOT_INVENTORY, load_patterns, postings
from rootsearch.errors import CorpusSpecError, UnknownRoot
from rootsearch.morphology import (
    DerivationPattern,
    RootLexicon,
    bad_template,
    derive,
    extract_root,
    light_stem,
)
from rootsearch.normalize import normalize


def _lexicon(pairs):
    """The lexicon of (word, root) ``pairs``, grouped as the manifest groups its columns."""
    return RootLexicon(postings([root for _, root in pairs], [word for word, _ in pairs]))


def _template(patterns, template):
    """The inventory's one pattern with ``template``."""
    (pattern,) = [p for p in patterns.patterns if p.template == template]
    return pattern


class TestPatternInventory:
    def test_loads_100_unique_templates(self, patterns):
        assert len(patterns) == 100
        assert len({p.template for p in patterns.patterns}) == 100
        assert len({p.pattern_id for p in patterns.patterns}) == 100

    def test_version(self, patterns):
        assert patterns.version == "v1"

    def test_all_templates_are_triliteral(self, patterns):
        assert all(p.arity == 3 for p in patterns.patterns)

    def test_rejects_gapped_or_missing_slots(self):
        assert bad_template("C1C3") == "template 'C1C3' numbers its slots with gaps"
        assert bad_template("ابت") == "template 'ابت' has no consonant slots"
        assert bad_template("يC1C2C3C4") is None

    def test_load_rejects_duplicate_templates(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_text(
            "# rootsearch-patterns v1\np001\tC1C2C3\np002\tC1C2C3\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusSpecError):
            load_patterns(bad)

    @pytest.mark.parametrize(
        "records, message",
        [
            ("p001\tC1C2C3\np002C1C2C3\n", ":3: expected 2 tab-separated fields, got 1"),
            ("p001\tC1C2C3\tx\n", ":2: expected 2 tab-separated fields, got 3"),
            ("p001\tC1C2C3\n\np001\tC1C2C3ون\n", ":4: pattern id 'p001' repeats line 2"),
            ("p001\tC1C2C3\np002\tC1C2C3\n", ":3: template 'C1C2C3' repeats pattern p001"),
            ("p001\tC1C3\n", ":2: template 'C1C3' numbers its slots with gaps"),
            ("p001\tC1C2C3\n\tC1C2اC3\n", ":3: empty pattern id field"),
            ("", ": no patterns after the header line"),
        ],
        ids=[
            "no-tab", "three-fields", "repeated-id", "repeated-template", "slot-gap",
            "empty-id", "header-only",
        ],
    )
    def test_load_errors_name_file_and_line(self, tmp_path, records, message):
        bad = tmp_path / "patterns.tsv"
        bad.write_text("# rootsearch-patterns v1\n" + records, encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_patterns(bad)
        assert str(info.value) == f"{bad}{message}"

    def test_load_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_bytes(b"# rootsearch-patterns v1\np001\tC1C2C3\np002\tC1\xff")
        with pytest.raises(CorpusSpecError) as info:
            load_patterns(bad)
        assert str(info.value) == f"{bad}:3: not UTF-8: byte 0xff (invalid start byte)"

    def test_load_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_text("p001\tC1C2C3\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_patterns(bad)
        assert str(info.value).startswith(f"{bad}:1: expected header '# rootsearch-patterns v1'")

    def test_load_rejects_another_version(self, tmp_path):
        bad = tmp_path / "patterns.tsv"
        bad.write_text("# rootsearch-patterns v2\np001\tC1C2C3\n", encoding="utf-8")
        with pytest.raises(CorpusSpecError) as info:
            load_patterns(bad)
        assert str(info.value) == (
            f"{bad}:1: expected header '# rootsearch-patterns v1', got '# rootsearch-patterns v2'"
        )


class TestDerive:
    def test_present_plural_of_anchor_roots(self, patterns):
        plural = _template(patterns, "يC1C2C3ون")
        assert derive("لعب", plural) == "يلعبون"
        assert derive("اكل", plural) == "ياكلون"

    def test_definite_passive_participle(self, patterns):
        participle = _template(patterns, "المC1C2وC3")
        assert derive("اكل", participle) == "الماكول"

    def test_deterministic(self, patterns):
        for pattern in patterns.patterns[:10]:
            assert derive("كتب", pattern) == derive("كتب", pattern)

    def test_injective_per_root_over_full_inventory(self, patterns):
        # brute force: every built-in root yields 100 pairwise-distinct words
        for root in ROOT_INVENTORY:
            words = [derive(root, p) for p in patterns.patterns]
            assert len(set(words)) == len(words), root

    def test_quadriliteral_root_with_four_slot_template(self):
        quad = DerivationPattern("q1", "يC1C2C3C4")
        assert quad.arity == 4
        assert derive("دحرج", quad) == "يدحرج"

    def test_arity_mismatch(self, patterns):
        pattern = _template(patterns, "C1C2C3")
        with pytest.raises(
            ValueError,
            match=f"^pattern {pattern.pattern_id} has 3 slots, root 'دحرج' has 4 letters$",
        ):
            derive("دحرج", pattern)
        with pytest.raises(ValueError, match="^pattern q1 has 4 slots, root 'لعب' has 3 letters$"):
            derive("لعب", DerivationPattern("q1", "يC1C2C3C4"))

    def test_rejects_unnormalized_root(self, patterns):
        with pytest.raises(ValueError):
            derive("أكل", _template(patterns, "C1C2C3"))

    def test_rejects_short_root(self, patterns):
        with pytest.raises(ValueError):
            derive("كب", _template(patterns, "C1C2C3"))

    def test_rejects_diacritic_only_root(self, patterns):
        with pytest.raises(ValueError):
            derive("َُِ", _template(patterns, "C1C2C3"))


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

    # Arabic-Indic digits and Arabic commas are Arabic-block code points that
    # normalize keeps; a 3-4 code-point residue of them is still no root
    @pytest.mark.parametrize("word", ["١٢٣", "،،،", "١٢٣٤", "كت١"])
    def test_residue_that_is_not_all_letters_raises(self, lexicon, word):
        with pytest.raises(UnknownRoot):
            extract_root(normalize(word), lexicon)


class TestSameRoot:
    def test_reflexive(self, lexicon):
        assert extract_root("يلعبون", lexicon) == extract_root("يلعبون", lexicon)

    def test_word_and_its_root(self, lexicon):
        assert extract_root("يلعبون", lexicon) == extract_root("لعب", lexicon) == "لعب"

    def test_distinct_groups(self, lexicon):
        assert extract_root("يلعبون", lexicon) != extract_root("ياكلون", lexicon)

    def test_propagates_unknown_root(self, lexicon):
        with pytest.raises(UnknownRoot):
            extract_root("فه", lexicon)


class TestRootLexicon:
    def test_maps_are_mutually_consistent(self, manifest):
        lex = manifest.lexicon
        for root in manifest.roots:
            for word in lex.words_of(root):
                assert lex.root_of(word) == root
        for doc in manifest.documents[::53]:
            assert doc.word in lex.words_of(lex.root_of(doc.word))

    def test_conflicting_pair_rejected(self):
        pairs = [("يلعبون", "لعب"), ("لاعب", "لعب"), ("يلعبون", "اكل")]
        with pytest.raises(ValueError, match="'يلعبون' has two roots: 'لعب' and 'اكل'"):
            _lexicon(pairs)

    def test_repeated_pair_counts_once(self):
        lex = _lexicon([("يلعبون", "لعب"), ("يلعبون", "لعب")])
        assert len(lex) == 1
        assert lex.words_of("لعب") == ("يلعبون",)

    def test_words_of_is_sorted(self):
        lex = _lexicon([("يلعبون", "لعب"), ("ياكلون", "اكل"), ("لاعب", "لعب")])
        assert lex.words_of("لعب") == ("لاعب", "يلعبون")
        assert lex.words_of("زخرف") == ()
        assert RootLexicon().words_of("لعب") == ()

    def test_root_mates_share_one_root_object(self):
        # one str per manifest row in, one per root out
        first, second = "".join(["ل", "ع", "ب"]), "".join(["ل", "ع", "ب"])
        assert first == second and first is not second
        lex = _lexicon([("يلعبون", first), ("لاعب", second)])
        assert lex.root_of("يلعبون") is lex.root_of("لاعب")


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
                assert (extract_root(a.word, lex) == extract_root(b.word, lex)) == (
                    a.root == b.root
                )

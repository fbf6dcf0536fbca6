"""Normalization rules on vocalized, decorated and already-bare words."""

import pytest

from rootsearch.errors import EmptyAfterNormalization
from rootsearch.normalize import is_arabic_word, is_normalized, normalize


class TestNormalize:
    def test_strips_full_vocalization(self):
        assert normalize("وَبَصُرَتْ") == "وبصرت"

    def test_strips_shadda_and_tanwin(self):
        assert normalize("تَحْمَمًا") == "تحمما"
        assert normalize("حَبِيبٌ") == "حبيب"

    def test_collapses_alef_hamza_above(self):
        assert normalize("أكل") == "اكل"

    def test_collapses_alef_hamza_below_and_madda(self):
        assert normalize("إجذاعه") == "اجذاعه"
        assert normalize("آبيات") == "ابيات"

    def test_collapses_alef_wasla(self):
        assert normalize("ٱلصبر") == "الصبر"

    def test_alef_maqsura_to_ya(self):
        assert normalize("مشى") == "مشي"

    def test_taa_marbuta_to_ha(self):
        assert normalize("حماة") == "حماه"

    def test_removes_tatweel(self):
        assert normalize("كتـــاب") == "كتاب"

    def test_identity_on_bare_form(self):
        assert normalize("لعب") == "لعب"

    def test_only_diacritics_raises(self):
        with pytest.raises(EmptyAfterNormalization):
            normalize("ًّـ")

    @pytest.mark.parametrize("bad", ["", "kitab", "كتاب book", "كت اب", "123"])
    def test_rejects_non_arabic_single_words(self, bad):
        with pytest.raises(ValueError):
            normalize(bad)

    @pytest.mark.parametrize(
        "word",
        ["وَحَرْدَلٌ", "المَخْصِرَةَ", "يَسْفَحُهُ", "وَالسَّلْسِلَةَ", "الصَّعَافِقَةَ"],
    )
    def test_idempotent(self, word):
        once = normalize(word)
        assert normalize(once) == once

    def test_idempotent_over_corpus_sample(self, manifest):
        for doc in manifest.documents[::97]:
            assert normalize(doc.word) == doc.word

    def test_idempotent_across_arabic_block(self):
        # every normalizable single word built from each Arabic code point
        for cp in range(0x0600, 0x0700):
            word = "كت" + chr(cp) + "ب"
            if not is_arabic_word(word):
                continue
            once = normalize(word)
            assert normalize(once) == once


class TestHelpers:
    def test_is_arabic_word(self):
        assert is_arabic_word("كتاب")
        assert not is_arabic_word("كتاب x")
        assert not is_arabic_word("")

    def test_is_normalized(self):
        assert is_normalized("لعب")
        assert not is_normalized("لَعِبَ")
        assert not is_normalized("أكل")
        assert not is_normalized("abc")
        assert not is_normalized("َُِ")

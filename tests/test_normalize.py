"""Normalization rules on vocalized, decorated and already-bare words."""

import random

import pytest

from rootsearch.corpus import CorpusSpec, generate_corpus
from rootsearch.normalize import is_normalized, match_word, normalize
from rootsearch.search import Query


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
        with pytest.raises(ValueError, match="^nothing left after normalization: 'ًّـ'$"):
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
            if match_word(word) is None:
                continue
            once = normalize(word)
            assert normalize(once) == once


class TestHelpers:
    def test_is_arabic_word(self):
        assert match_word("كتاب") is not None
        assert match_word("كتاب x") is None
        assert match_word("") is None

    def test_is_normalized(self):
        assert is_normalized("لعب")
        assert not is_normalized("لَعِبَ")
        assert not is_normalized("أكل")
        assert not is_normalized("abc")
        assert not is_normalized("َُِ")


# triliteral roots of distinct-enough normalized consonants, as a
# synthetic root pool draws them
_CONSONANTS = "بتثجحخدذرزسشصضطظعغفقكلمنه"


def _synthetic_pool(count, seed):
    rng = random.Random(seed)
    pool = set()
    while len(pool) < count:
        root = "".join(rng.choice(_CONSONANTS) for _ in range(3))
        if len(set(root)) > 1:
            pool.add(root)
    return tuple(sorted(pool))


class TestUnchangedWordsSkipTheTranslate:
    """Every corpus word is already normalized: ``normalize`` and
    ``Query.parse`` hand back the very string they were given."""

    @staticmethod
    def _assert_unchanged(words):
        for word in words:
            assert normalize(word) is word, word
            assert Query.parse("q", word).normalized is word, word

    def test_default_corpus(self, manifest):
        self._assert_unchanged(doc.word for doc in manifest.documents)
        self._assert_unchanged(query.word for query in manifest.queries)

    def test_synthetic_pool_corpus(self, tmp_path):
        spec = CorpusSpec(root_count=20, peer_count=4, roots_per_peer=5, seed=3)
        manifest = generate_corpus(spec, tmp_path, root_pool=_synthetic_pool(20, 3))
        self._assert_unchanged(doc.word for doc in manifest.documents)
        self._assert_unchanged(query.word for query in manifest.queries)

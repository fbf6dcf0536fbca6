"""Property tests: the lexicon, the postings builder, normalization, query
parsing, the light stemmer and the 4-place rendering of exact fractions
against plain dict/set/regex/split/scan/Fraction references over generated
inputs, plus normalization's idempotence and the light stemmer's length
floor."""

import math
import re
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootsearch.corpus import Document, _bad_query, postings
from rootsearch.errors import EmptyAfterNormalization
from rootsearch.evaluation import fixed4
from rootsearch.morphology import RootLexicon, light_stem
from rootsearch.normalize import is_normalized, match_word, normalize
from rootsearch.search import Query

# small alphabets, so that generated words and roots often repeat
_words = st.text(alphabet="ابتث", min_size=1, max_size=3)
_roots = st.sampled_from(["لعب", "اكل", "كتب", "درس"])
_doc_ids = st.sampled_from([f"d{i}" for i in range(8)])


def _roots_by_word(pairs):
    roots = {}
    for word, root in pairs:
        roots.setdefault(word, set()).add(root)
    return roots


@given(st.lists(st.tuples(_words, _roots), max_size=30))
def test_lexicon_matches_a_dict_reference(pairs):
    roots = _roots_by_word(pairs)
    if any(len(found) > 1 for found in roots.values()):
        with pytest.raises(ValueError, match="has two roots"):
            RootLexicon(pairs)
        return
    lex = RootLexicon(pairs)
    root_of = {word: found.pop() for word, found in roots.items()}
    assert len(lex) == len(root_of)
    assert lex.vocabulary() == frozenset(root_of)
    for word, root in root_of.items():
        assert word in lex
        assert lex.root_of(word) == root
    for root in {"لعب", "اكل", "كتب", "درس"}:
        words = lex.words_of(root)
        assert words == tuple(sorted(w for w, r in root_of.items() if r == root))
        assert len({id(lex.root_of(word)) for word in words}) <= 1


@given(st.lists(st.tuples(_doc_ids, _words, _roots), max_size=30))
def test_postings_match_a_set_reference(rows):
    docs = [Document(doc_id, word, root, "peer-1") for doc_id, word, root in rows]
    for field in ("word", "root"):
        grouped = {}
        for doc in docs:
            grouped.setdefault(getattr(doc, field), set()).add(doc.doc_id)
        filed = postings(docs, attrgetter(field))
        assert filed == {key: tuple(sorted(ids)) for key, ids in grouped.items()}
        assert all(type(ids) is tuple for ids in filed.values())


# normalization written out as three passes: tatweel, diacritics, letters
_REF_TATWEEL = "\u0640"
_REF_DIACRITICS = re.compile("[\u0610-\u061a\u064b-\u065f\u0670\u06d6-\u06ed]")
_REF_LETTERS = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ٱ": "ا", "ى": "ي", "ة": "ه"})
_REF_WORD = re.compile("\\A[\u0600-\u06ff]+\\Z")


def _reference_strip(text):
    return _REF_DIACRITICS.sub("", text.replace(_REF_TATWEEL, ""))


def _reference_normalize(word):
    if not _REF_WORD.match(word):
        raise ValueError(word)
    stripped = _reference_strip(word)
    if not stripped:
        raise EmptyAfterNormalization(word)
    return stripped.translate(_REF_LETTERS)


def _outcome(fn, word):
    """The value ``fn`` returns for ``word``, or the type of what it raises."""
    try:
        return fn(word)
    except (ValueError, EmptyAfterNormalization) as exc:
        return type(exc)


def _assert_normalize_matches_reference(word):
    assert _outcome(normalize, word) == _outcome(_reference_normalize, word), ascii(word)


# letters, the folded letters, tatweel, marks inside each diacritic range
# and the code points just outside them, a few non-Arabic code points, plus
# any Arabic-block code point
_arabic_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(
            "بتكلمويها" "أإآٱىة" "\u0640"
            "\u0610\u061a\u064b\u064e\u0651\u0652\u065f\u0670\u06d6\u06ed"
            "\u060f\u061b\u064a\u0660\u066f\u0671\u06d5\u06ee"
            "a \u0700"
        ),
        st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
    ),
    max_size=8,
)


@settings(max_examples=500)
@given(_arabic_text)
def test_normalize_matches_a_three_pass_reference(word):
    _assert_normalize_matches_reference(word)


@pytest.mark.parametrize("prefix", ["", "ب"])
def test_normalize_matches_the_reference_on_every_arabic_code_point(prefix):
    for code in range(0x0600, 0x0700):
        _assert_normalize_matches_reference(prefix + chr(code))


# query text: letters, the folded letters, marks and tatweel that leave
# nothing behind, the separators split() knows (space, tab, NBSP, newline),
# Latin and a code point just past the Arabic block
_query_text = st.text(
    alphabet="كتبلمو" "أإآٱىة" "\u064e\u0651\u0652\u0640" " \t\u00a0\n" "a\u0700",
    max_size=8,
)


def _reference_parse(raw):
    tokens = raw.split()
    if len(tokens) != 1:
        raise ValueError(raw)
    return Query("q", raw, _reference_normalize(tokens[0]))


def _assert_parse_matches_reference(raw):
    parsed = _outcome(lambda text: Query.parse("q", text), raw)
    expected = _outcome(_reference_parse, raw)
    assert parsed == expected and type(parsed) is type(expected), ascii(raw)


@settings(max_examples=500)
@given(st.one_of(_query_text, _arabic_text))
@example("كتب\n")
@example("\u00a0كتب\t")
@example("ـــ")
@example(" \u064e ")
@example("كتب لعب")
def test_query_parse_matches_a_split_then_normalize_reference(raw):
    _assert_parse_matches_reference(raw)


@pytest.mark.parametrize("prefix", ["", "ب", " ب"])
def test_query_parse_matches_the_reference_on_every_arabic_code_point(prefix):
    for code in range(0x0600, 0x0700):
        _assert_parse_matches_reference(prefix + chr(code))


@settings(max_examples=500)
@given(st.one_of(_query_text, _arabic_text))
@example("كتب\n")
@example("كتب")
def test_is_normalized_matches_the_reference(word):
    is_word = match_word(word) is not None
    assert is_word == bool(_REF_WORD.match(word)), ascii(word)
    expected = is_word and _outcome(_reference_normalize, word) == word
    assert is_normalized(word) == expected, ascii(word)


@settings(max_examples=500)
@given(st.one_of(_query_text, _arabic_text, st.text(max_size=8)))
@example("ـــ")
@example("كتب لعب")
def test_query_file_check_accepts_exactly_the_words_query_parse_accepts(word):
    parsed = _outcome(lambda text: Query.parse("q", text), word)
    accepted = _bad_query(["q", word, "كتب"], {"كتب": "كتب"}) is None
    assert accepted == isinstance(parsed, Query), ascii(word)


@settings(max_examples=500)
@given(_arabic_text)
def test_normalize_is_idempotent(word):
    try:
        normalized = normalize(word)
    except (ValueError, EmptyAfterNormalization):
        return
    assert normalize(normalized) == normalized, ascii(word)


# every letter of the clitics light_stem peels, plus root letters, so that
# generated words stack prefixes and suffixes and often fall near 3 letters
_CLITIC_ALPHABET = "والفبكلتنهيمادرس"
_clitic_words = st.text(alphabet=_CLITIC_ALPHABET, min_size=1, max_size=10)


@settings(max_examples=500)
@given(st.one_of(_clitic_words, _arabic_text.filter(is_normalized)))
def test_light_stem_keeps_three_letters_of_the_word(word):
    stem = light_stem(word)
    assert len(stem) >= min(3, len(word)), (word, stem)
    assert stem in word, (word, stem)


# The light stemmer written as a full scan: every suffix in order after
# each strip, then every article, as the table-driven light_stem must match.
_REF_SUFFIXES = (
    "تها", "ناه", "ها", "هم", "هن", "كم", "كن", "نا",
    "تم", "ون", "ين", "ان", "ات", "وا", "ه", "ت",
)
_REF_ARTICLES = ("بال", "كال", "لل", "ال")


def _reference_light_stem(word):
    stem = word
    changed = True
    while changed:
        changed = False
        for suffix in _REF_SUFFIXES:
            if stem.endswith(suffix) and len(stem) - len(suffix) >= 3:
                stem = stem[: -len(suffix)]
                changed = True
                break
    if stem[:1] in ("و", "ف") and len(stem) - 1 >= 3:
        stem = stem[1:]
    for prefix in _REF_ARTICLES:
        if stem.startswith(prefix) and len(stem) - len(prefix) >= 3:
            stem = stem[len(prefix) :]
            break
    else:
        if stem[:1] in ("ب", "ك", "ل") and len(stem) - 1 >= 4:
            stem = stem[1:]
    return stem


@settings(max_examples=500)
@given(st.one_of(_clitic_words, _arabic_text.filter(is_normalized)))
@example("والكتابها")
@example("للعلمات")
@example("كتبتها")
def test_light_stem_matches_a_full_scan_reference(word):
    assert light_stem(word) == _reference_light_stem(word), word


def test_light_stem_matches_the_reference_on_every_short_clitic_word():
    words = [""]
    for _ in range(4):
        words = [w + letter for w in words for letter in _CLITIC_ALPHABET]
        for word in words:
            assert light_stem(word) == _reference_light_stem(word), word


def _fixed4_reference(value):
    """floor(value * 10000 + 1/2) in Fraction arithmetic: the definition
    ``fixed4`` works out in integers."""
    scaled = math.floor(value * 10000 + Fraction(1, 2))
    return f"{scaled // 10000}.{scaled % 10000:04d}"


_fractions = st.fractions(min_value=0, max_value=1000)
# the exact halves between two 4-place values: these round up
_halves = st.integers(min_value=0, max_value=10**6).map(lambda k: Fraction(2 * k + 1, 20000))


@given(st.one_of(_fractions, _halves))
@example(Fraction(1, 20000))
@example(Fraction(19999, 20000))
@example(Fraction(0))
def test_fixed4_matches_the_fraction_reference(value):
    assert fixed4(value) == _fixed4_reference(value)

"""Property tests: the lexicon, the postings builder, the manifest's column
groupings and the overlay peers against row-by-row references, normalization, query
parsing, the light stemmer, the 4-place rendering of exact fractions and
the integer means of an evaluation against plain
dict/set/regex/split/scan/Fraction references over generated inputs, plus
normalization's idempotence, the light stemmer's length floor, the error
contract: every error a bad word, template or pattern file raises is a
ValueError, the template fill against a ``str.replace`` reference, and the
load contract: an edited corpus is rejected, naming its file, or every
document is found by its own word, routed or not."""

import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootsearch.corpus import (
    MANIFEST_NAME,
    PATTERNS,
    QUERIES_NAME,
    CorpusManifest,
    CorpusSpec,
    Document,
    _bad_query,
    generate_corpus,
    load_manifest,
    load_patterns,
    postings,
)
from rootsearch.errors import CorpusSpecError
from rootsearch.evaluation import EvalReport, build_engines, fixed4, make_record, write_report
from rootsearch.index import IndexMode
from rootsearch.morphology import (
    DerivationPattern,
    RootLexicon,
    derivations,
    derive,
    light_stem,
    prepare,
)
from rootsearch.normalize import is_normalized, match_word, normalize
from rootsearch.p2p import build_overlay, p2p_search
from rootsearch.search import BASELINE, EXPANDED, Query

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
            RootLexicon(postings([r for _, r in pairs], [w for w, _ in pairs]))
        return
    lex = RootLexicon(postings([r for _, r in pairs], [w for w, _ in pairs]))
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
        filed = postings([getattr(doc, field) for doc in docs], [doc.doc_id for doc in docs])
        assert filed == {key: tuple(sorted(ids)) for key, ids in grouped.items()}
        assert all(type(ids) is tuple for ids in filed.values())


def _row_postings(docs, field, value="doc_id"):
    """Each row's ``field`` -> the sorted, duplicate-free ``value``s of its
    rows: the grouping row by row, over ``Document`` rows."""
    grouped = {}
    for doc in docs:
        grouped.setdefault(getattr(doc, field), []).append(getattr(doc, value))
    return {key: tuple(dict.fromkeys(sorted(values))) for key, values in grouped.items()}


@st.composite
def _specs(draw):
    """A small corpus shape."""
    peers = draw(st.integers(1, 4))
    roots_per_peer = draw(st.integers(1, 2))
    return CorpusSpec(
        root_count=peers * roots_per_peer,
        words_per_root=draw(st.integers(1, 4)),
        peer_count=peers,
        superpeer_count=draw(st.sampled_from([d for d in range(1, peers + 1) if peers % d == 0])),
        roots_per_peer=roots_per_peer,
        seed=draw(st.integers(0, 99)),
    )


@st.composite
def _layouts(draw):
    """A small corpus shape and its peer layout: None for the generator's
    block layout, else a permutation of its peer column."""
    spec = draw(_specs())
    return spec, draw(st.none() | st.permutations(range(spec.total_documents)))


@settings(max_examples=60, deadline=None)
@given(_layouts())
def test_column_groupings_and_overlay_peers_match_row_references(layout):
    spec, order = layout
    with tempfile.TemporaryDirectory() as out:
        manifest = generate_corpus(spec, out)
    if order is not None:
        peer_column = [manifest.doc_peers[j] for j in order]
        manifest = CorpusManifest(
            spec, (manifest.doc_ids, manifest.doc_words, manifest.doc_roots, peer_column),
            manifest.roots, manifest.queries, manifest.patterns_version,
        )
    docs = manifest.documents
    assert manifest.docs_by_root == _row_postings(docs, "root")
    assert manifest.docs_by_word == _row_postings(docs, "word")
    lexicon = manifest.lexicon
    assert lexicon.vocabulary() == {doc.word for doc in docs}
    for root, words in _row_postings(docs, "root", "word").items():
        assert lexicon.words_of(root) == words
        assert all(lexicon.root_of(word) == root for word in words)
    (baseline,) = build_engines(manifest, [BASELINE])
    assert baseline.index.entries == _row_postings(docs, "word")
    assert baseline.index.root_postings == _row_postings(docs, "root")
    for mode, field, corpus_wide in (
        (IndexMode.SIMPLE, "word", manifest.docs_by_word),
        (IndexMode.ADVANCED, "root", manifest.docs_by_root),
    ):
        for peer_id, held in build_overlay(manifest, mode).peers.items():
            shard = [doc for doc in docs if doc.peer_id == peer_id]
            assert held == _row_postings(shard, field), (mode, peer_id)
            for key, ids in held.items():
                holders = {doc.peer_id for doc in docs if getattr(doc, field) == key}
                if holders == {peer_id}:
                    assert ids is corpus_wide[key], (mode, peer_id, key)


# normalization written out as three passes: tatweel, diacritics, letters
_REF_TATWEEL = "\u0640"
_REF_DIACRITICS = re.compile("[\u0610-\u061a\u064b-\u065f\u0670\u06d6-\u06ed]")
_REF_LETTERS = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ٱ": "ا", "ى": "ي", "ة": "ه"})
_REF_WORD = re.compile("\\A[\u0600-\u06ff]+\\Z")


def _reference_strip(text):
    return _REF_DIACRITICS.sub("", text.replace(_REF_TATWEEL, ""))


def _reference_normalize(word):
    if not _REF_WORD.match(word):
        raise ValueError(f"not a single Arabic word: {word!r}")
    stripped = _reference_strip(word)
    if not stripped:
        raise ValueError(f"nothing left after normalization: {word!r}")
    return stripped.translate(_REF_LETTERS)


def _outcome(fn, word):
    """The value ``fn`` returns for ``word``, or the ValueError it raises as
    a (type, message) pair."""
    try:
        return fn(word)
    except ValueError as exc:
        return type(exc), str(exc)


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
        raise ValueError(f"queries are single words, got {raw!r}")
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
    # ... and that hold no whitespace, as a manifest word may not
    parsed = _outcome(lambda text: Query.parse("q", text), word)
    accepted = _bad_query(["q", word, "كتب"], {"كتب": "كتب"}) is None
    assert accepted == (isinstance(parsed, Query) and word.split() == [word]), ascii(word)


@settings(max_examples=500)
@given(_arabic_text)
def test_normalize_is_idempotent(word):
    try:
        normalized = normalize(word)
    except ValueError:
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


@st.composite
def _query_counts(draw):
    """(hits, found, relevant) counts of one query; either set may be empty."""
    found = draw(st.integers(0, 60))
    relevant = draw(st.integers(0, 60))
    return draw(st.integers(0, min(found, relevant))), found, relevant


@settings(max_examples=80, deadline=None)
@given(st.lists(_query_counts(), min_size=1, max_size=20))
@example([(0, 0, 0)])
@example([(0, 0, 7), (0, 3, 0), (1, 1, 100)])
def test_integer_means_match_the_fraction_sums(counts):
    records = []
    for i, (hits, found, relevant) in enumerate(counts):
        # "h" ids are found and relevant, "f" ids only found, "r" ids only relevant
        both = [f"h{k}" for k in range(hits)]
        records.append(make_record(
            f"q{i}", "w",
            both + [f"f{k}" for k in range(found - hits)],
            both + [f"r{k}" for k in range(relevant - hits)],
        ))
    # the conventions: an empty found set gives P = 0, an empty relevant set R = 1
    mean_p = sum(Fraction(h, f) if f else Fraction(0) for h, f, _ in counts) / len(counts)
    mean_r = sum(Fraction(h, r) if r else Fraction(1) for h, _, r in counts) / len(counts)
    report = EvalReport({BASELINE: tuple(records)}, "digest", 0, "v1")
    with tempfile.TemporaryDirectory() as out:
        summary = write_report(report, out)
    assert summary[1].split("\t") == [
        BASELINE, str(len(counts)), _fixed4_reference(mean_p), _fixed4_reference(mean_r), "0"
    ]
    assert report.mean_precision(BASELINE) == mean_p
    assert report.mean_recall(BASELINE) == mean_r


# what a template holds besides its slots: letters, a bare C, the digits 0 and 1
# (after a bare C: C0 is no slot, C1 is slot 1), and braces, which str.format reads
_TEMPLATE_PIECES = st.sampled_from(["ا", "م", "ت", "ون", "C", "0", "1", "{", "}", "{0}", "}{"])


@st.composite
def _roots_and_templates(draw):
    """A 3- or 4-letter root and 1-3 templates, each with every one of its
    slots C1..Cn at least once, some twice, among literal pieces."""
    root = draw(st.text(alphabet="ابتجدرسعكلمنهوي", min_size=3, max_size=4))
    slots = [f"C{k}" for k in range(1, len(root) + 1)]
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        pieces = slots + draw(st.lists(st.sampled_from(slots), max_size=2))
        pieces += draw(st.lists(_TEMPLATE_PIECES, max_size=6))
        templates.append("".join(draw(st.permutations(pieces))))
    return root, templates


def _filled_by_replace(root, template):
    """The template fill as one ``str.replace`` pass per slot, C1 first."""
    for slot, letter in enumerate(root, start=1):
        template = template.replace(f"C{slot}", letter)
    return template


@settings(max_examples=300, deadline=None)
@given(_roots_and_templates())
@example(("لعب", ["CC1C2C3C", "{C1}C2{0}C3}{"]))
@example(("دحرج", ["C1C2C3C4", "C12C2C3C4C0"]))
def test_the_prepared_fill_is_derive(root_and_templates):
    root, templates = root_and_templates
    patterns = [DerivationPattern(f"p{i}", t) for i, t in enumerate(templates)]
    prepared = list(map(prepare, patterns))
    for pattern, (same, arity, fill) in zip(patterns, prepared):
        assert same is pattern and arity == len(root)
        assert fill(*root) == derive(root, pattern) == _filled_by_replace(root, pattern.template)
    assert list(derivations(root, prepared)) == [derive(root, p) for p in patterns]


@st.composite
def _wrong_arity(draw):
    """A root and a template whose slot count is not the root's length; the
    root is a real one, or any short text."""
    root = draw(st.one_of(st.sampled_from(["لعب", "اكل", "دحرج"]), st.text(max_size=5)))
    slots = draw(st.integers(1, 5).filter(lambda n: n != len(root)))
    letters = draw(st.lists(st.sampled_from("يتمنا"), min_size=slots + 1, max_size=slots + 1))
    template = letters[0] + "".join(f"C{i}{letter}" for i, letter in enumerate(letters[1:], 1))
    return root, DerivationPattern("p", template)


def _load_patterns_from(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "patterns.tsv"
        path.write_bytes(data)
        return load_patterns(path)


# a pattern file: a right or wrong header line, good and bad rows, and a
# tail of bytes that may not be UTF-8
_pattern_files = st.builds(
    lambda head, rows, tail: "\n".join([head, *rows]).encode("utf-8") + tail,
    st.sampled_from([PATTERNS.magic, "# rootsearch-patterns v2", ""]),
    st.lists(
        st.one_of(
            st.sampled_from(
                ["p1\tC1C2C3", "p2\tيC1C2C3ون", "p3\tC1C3", "p4\tابت", "p1\tC1C2C3\tx", "\tC1"]
            ),
            st.text(max_size=10),
        ),
        max_size=6,
    ),
    st.binary(max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.just(normalize), st.tuples(st.one_of(_query_text, _arabic_text, st.text()))),
    st.tuples(
        st.just(Query.parse),
        st.tuples(st.just("q"), st.one_of(_query_text, _arabic_text, st.text())),
    ),
    st.tuples(st.just(derive), _wrong_arity()),
    st.tuples(st.just(_load_patterns_from), st.tuples(_pattern_files)),
))
@example((normalize, ("ـــ",)))
@example((Query.parse, ("q", "\u064e")))
@example((derive, ("لعب", DerivationPattern("p", "يC1C2C3C4"))))
def test_every_error_that_escapes_is_a_value_error(call_and_args):
    # an error of any other type escapes the test and fails it
    call, args = call_and_args
    try:
        call(*args)
    except ValueError:
        return
    # derive refuses every drawn pair: the root's length is never the slot count
    assert call is not derive, ascii(args)


# what a load-contract edit inserts or deletes: the tab, a CR (read as a line
# end), U+2028 (a character of a field), a diacritic, taa marbuta and tatweel
_EDIT_CHARS = ("\t", "\r", "\u2028", "\u064e", "ة", "ـ")
_EDITS = st.tuples(
    st.sampled_from([MANIFEST_NAME, QUERIES_NAME]),
    st.sampled_from(["insert", "delete", "duplicate", "swap", "drop"]),
    st.integers(0, 40),  # a line, modulo the file's line count
    st.integers(0, 40),  # a place in that line, modulo its length
    st.sampled_from(_EDIT_CHARS),
)


def _edit(text, kind, line, at, char):
    """``text`` with one edit: ``char`` inserted, one of ``_EDIT_CHARS``
    deleted, or a line duplicated, swapped with the one before or dropped."""
    lines = text.split("\n")
    line %= len(lines)
    held = lines[line]
    if kind == "insert":
        at %= len(held) + 1
        lines[line] = held[:at] + char + held[at:]
    elif kind == "delete":
        places = [i for i, c in enumerate(held) if c in _EDIT_CHARS]
        if places:
            at = places[at % len(places)]
            lines[line] = held[:at] + held[at + 1:]
    elif kind == "duplicate":
        lines.insert(line, held)
    elif kind == "swap":
        lines[line - 1], lines[line] = held, lines[line - 1]
    else:
        del lines[line]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(spec=_specs(), edits=st.lists(_EDITS, min_size=1, max_size=3))
# a fatha in line 2's word and a taa marbuta in line 3's: a doc id and its tab
# are 7 characters
@example(spec=CorpusSpec(4, 5, 4, 2, 1), edits=[(MANIFEST_NAME, "insert", 1, 8, "\u064e")])
@example(spec=CorpusSpec(4, 5, 4, 2, 1), edits=[(MANIFEST_NAME, "insert", 2, 9, "ة")])
def test_an_edited_corpus_is_rejected_by_name_or_answerable(spec, edits):
    """The load contract: whatever ``load_manifest`` returns, each document's
    own word finds it by exact search, and its root group by expansion, and
    both overlays answer as the centralized engines from every origin;
    whatever it rejects, the error starts with the file, and the line if any."""
    with tempfile.TemporaryDirectory() as out:
        corpus_dir = Path(out)
        generate_corpus(spec, corpus_dir)
        for name, kind, line, at, char in edits:
            path = corpus_dir / name
            # bytes, so that an inserted "\r" stays one for the next edit
            path.write_bytes(_edit(path.read_bytes().decode(), kind, line, at, char).encode())
        try:
            loaded = load_manifest(corpus_dir)
        except CorpusSpecError as err:
            files = "|".join(re.escape(str(corpus_dir / n)) for n in (MANIFEST_NAME, QUERIES_NAME))
            assert re.match(rf"(?:{files})(?::\d+)?: ", str(err)), str(err)
            return
    baseline, expanded = build_engines(loaded, [BASELINE, EXPANDED])
    routed = [
        (baseline, build_overlay(loaded, IndexMode.SIMPLE)),
        (expanded, build_overlay(loaded, IndexMode.ADVANCED)),
    ]
    for doc in loaded.documents:
        query = Query.parse(doc.doc_id, doc.word)
        assert doc.doc_id in baseline.run(query).result.found, doc
        assert expanded.run(query).result.found == loaded.docs_by_root[doc.root], doc
        # each routed engine answers as its centralized one, from every origin
        for engine, overlay in routed:
            central = engine.run(query).result
            for origin in loaded.spec.peer_ids():
                assert p2p_search(query, overlay, origin).result == central, (doc, origin)

"""Property tests: the lexicon and the postings builder against plain
dict/set references over generated inputs."""

from operator import attrgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootsearch.corpus import Document, postings
from rootsearch.morphology import RootLexicon

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
        assert lex.roots_of(words + ("ججج",)) == {lex.root_of(w) for w in words} | {None}


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

"""Shared fixtures: one default 10,000-document corpus per session, plus
the indexes, overlays and evaluation report built from it, seeded noisy
query words, and a small scaled-down corpus for cheap unit tests."""

import random

import pytest

from rootsearch.corpus import CorpusSpec, generate_corpus, load_patterns, manifest_digest
from rootsearch.evaluation import build_engines, run_evaluation
from rootsearch.index import IndexMode, build_index
from rootsearch.p2p import build_overlay

MICRO_SPEC = CorpusSpec(
    root_count=2,
    words_per_root=3,
    peer_count=2,
    superpeer_count=1,
    roots_per_peer=1,
    seed=7,
)


@pytest.fixture(scope="session")
def patterns():
    return load_patterns()


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus-default")
    manifest = generate_corpus(CorpusSpec(), out)
    return out, manifest


@pytest.fixture(scope="session")
def corpus_dir(default_corpus):
    return default_corpus[0]


@pytest.fixture(scope="session")
def manifest(default_corpus):
    return default_corpus[1]


@pytest.fixture(scope="session")
def lexicon(manifest):
    return manifest.lexicon


@pytest.fixture(scope="session")
def simple_index(manifest):
    return build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)


@pytest.fixture(scope="session")
def advanced_index(manifest):
    return build_index(manifest.documents, IndexMode.ADVANCED, manifest.lexicon)


@pytest.fixture(scope="session")
def overlay_simple(manifest):
    return build_overlay(manifest, IndexMode.SIMPLE)


@pytest.fixture(scope="session")
def overlay_advanced(manifest):
    return build_overlay(manifest, IndexMode.ADVANCED)


_PREFIXES = ("", "و", "ف", "ال", "وال", "بال", "لل")
_SUFFIXES = ("", "ها", "هم", "كم", "نا", "ه", "ات", "ون")
_DIACRITICS = ("َ", "ُ", "ِ", "ْ", "ّ", "ـ")


@pytest.fixture(scope="session")
def noisy_words(lexicon):
    """2,000 seeded noisy variants of vocabulary words, and two edge cases.

    Each variant wraps a word in clitics and sprinkles diacritics and
    tatweel over it. Of the variants, 20 degrade to exact search and 100
    resolve to a root absent from the corpus.
    """
    rng = random.Random(2011)
    noisy = []
    for word in rng.sample(sorted(lexicon.vocabulary()), 2000):
        wrapped = rng.choice(_PREFIXES) + word + rng.choice(_SUFFIXES)
        noisy.append("".join(ch + rng.choice(("",) + _DIACRITICS) for ch in wrapped))
    # فه resolves to no root (degraded); زخرف resolves to a root absent from the corpus
    return noisy + ["فه", "زخرف"]


@pytest.fixture(scope="session")
def full_report(manifest, corpus_dir):
    engines = build_engines(manifest)
    return run_evaluation(manifest, engines, corpus_digest=manifest_digest(corpus_dir))


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus-micro")
    manifest = generate_corpus(MICRO_SPEC, out)
    return out, manifest

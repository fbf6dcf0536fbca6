"""A reference renderer for ``run-eval``'s output files.

It reads ``manifest.tsv`` and ``queries.tsv`` with its own parser and
writes every ``results/<engine>.tsv`` and ``summary.tsv`` from the
generator's record alone: ``baseline`` and ``p2p-simple`` find the
documents of the query word, ``expanded`` and ``p2p-advanced`` those of the
row's root, and a routed engine contacts the peers holding what it found.
The files ``run-eval`` writes must equal these byte for byte, over small
corpus shapes and the default corpus.
"""

import hashlib
import tempfile
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rootsearch.cli import EXIT_OK, main
from rootsearch.corpus import CorpusSpec, generate_corpus

# engine -> (whether it finds by root rather than word, whether it is routed)
_ENGINES = {
    "baseline": (False, False),
    "expanded": (True, False),
    "p2p-simple": (False, True),
    "p2p-advanced": (True, True),
}
_RESULT_COLUMNS = "\t".join((
    "query_id", "query_word", "found_count", "relevant_count", "precision", "recall",
    "peers_contacted",
))
_SUMMARY_COLUMNS = "\t".join(("engine", "queries", "mean_precision", "mean_recall", "failures"))


def _read(path):
    """The ``key=value`` fields of a file's header line, and its rows."""
    first, *rest = path.read_text("utf-8").splitlines()
    _magic, *fields = first.split("\t")
    return dict(field.split("=", 1) for field in fields), [line.split("\t") for line in rest]


def _places4(value):
    """``value`` to 4 decimal places, halves rounded up, through decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        return str(exact.quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def render_results(corpus_dir):
    """File name -> the text ``run-eval`` should write for ``corpus_dir``."""
    corpus_dir = Path(corpus_dir)
    header, documents = _read(corpus_dir / "manifest.tsv")
    _, queries = _read(corpus_dir / "queries.tsv")
    by_word, by_root, peer_of = {}, {}, {}
    for doc_id, word, root, peer_id in documents:
        by_word.setdefault(word, set()).add(doc_id)
        by_root.setdefault(root, set()).add(doc_id)
        peer_of[doc_id] = peer_id
    meta = (
        f"corpus_digest={hashlib.sha256((corpus_dir / 'manifest.tsv').read_bytes()).hexdigest()}"
        f"\tseed={header['seed']}\tpatterns={header['patterns']}"
    )
    files, summary = {}, [f"# rootsearch-summary v1\t{meta}", _SUMMARY_COLUMNS]
    for engine, (root_aware, routed) in _ENGINES.items():
        lines = [f"# rootsearch-results v1\tengine={engine}\t{meta}", _RESULT_COLUMNS]
        precisions, recalls = [], []
        for query_id, word, root in queries:
            relevant = by_root.get(root, set())
            found = relevant if root_aware else by_word.get(word, set())
            hit = len(found & relevant)
            p = Fraction(hit, len(found)) if found else Fraction(0)
            r = Fraction(hit, len(relevant)) if relevant else Fraction(1)
            precisions.append(p)
            recalls.append(r)
            peers = len({peer_of[doc_id] for doc_id in found}) if routed else "-"
            lines.append(
                f"{query_id}\t{word}\t{len(found)}\t{len(relevant)}"
                f"\t{_places4(p)}\t{_places4(r)}\t{peers}"
            )
        files[f"{engine}.tsv"] = "\n".join(lines) + "\n"
        n = len(queries)
        summary.append(
            f"{engine}\t{n}\t{_places4(sum(precisions) / n)}\t{_places4(sum(recalls) / n)}\t0"
        )
    files["summary.tsv"] = "\n".join(summary) + "\n"
    return files


def _run_eval(corpus_dir, out):
    assert main(["run-eval", "--corpus", str(corpus_dir), "--out", str(out)]) == EXIT_OK
    return {path.name: path.read_text("utf-8") for path in Path(out).iterdir()}


@st.composite
def _specs(draw):
    """Small corpus shapes: 1-4 peers, any divisor of the peer count as the
    super-peer count, 1-3 roots per peer and 1-6 words per root."""
    peers = draw(st.integers(1, 4))
    roots_per_peer = draw(st.integers(1, 3))
    return CorpusSpec(
        root_count=peers * roots_per_peer,
        words_per_root=draw(st.integers(1, 6)),
        peer_count=peers,
        superpeer_count=draw(st.sampled_from([d for d in range(1, peers + 1) if peers % d == 0])),
        roots_per_peer=roots_per_peer,
        seed=draw(st.integers(0, 99)),
    )


@settings(max_examples=100, deadline=None)
@given(_specs())
def test_run_eval_matches_the_reference_on_small_corpora(spec):
    with tempfile.TemporaryDirectory() as tmp:
        generate_corpus(spec, Path(tmp, "corpus"))
        written = _run_eval(Path(tmp, "corpus"), Path(tmp, "results"))
        assert written == render_results(Path(tmp, "corpus"))


def test_run_eval_matches_the_reference_on_the_default_corpus(corpus_dir, tmp_path):
    assert _run_eval(corpus_dir, tmp_path) == render_results(corpus_dir)

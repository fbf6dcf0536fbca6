"""Precision/recall evaluation of the four engine configurations.

Per query: precision = |relevant ∩ found| / |found| and
recall = |relevant ∩ found| / |relevant|, held as integer ratios (a record
keeps ``hits`` and both doc-id tuples) and rendered to 4 decimal places in
integer arithmetic. Conventions for the empty cases: an empty found set
gives precision 0, an empty relevant set gives recall 1. Each engine's
means are exact too: sums over the lcm of the denominators, divided by the
query count. ``Fraction``s are built only when asked for, so ``run-eval``
never imports ``fractions``. ``EvalRecord`` is an immutable
``NamedTuple`` and ``EvalReport`` a plain class; ``write_report`` returns
the summary table it wrote, so ``run-eval`` prints it without working the
means out again.

Relevance is the generator's record, not a stemmer's: a document is
relevant to a query iff its manifest root is the query row's root, so the
relevant ids are the manifest's ``docs_by_root`` tuple of that root.

An engine error is not recorded per query: it propagates out of
``run_evaluation``, and ``run-eval`` writes no file, so ``failures`` is 0
in every summary that gets written.

Output files, both ``corpus.TsvFormat`` files written by
``corpus.write_tsv`` and read back by ``corpus.read_table``, with a
header line (corpus digest, seed and pattern-file version; a results
file also names its engine) and a column line:

    results/<engine>.tsv  query_id, query_word, found_count,
                          relevant_count, precision, recall,
                          peers_contacted ("-" for centralized engines)
    results/summary.tsv   engine, queries, mean_precision, mean_recall,
                          failures (always 0)
"""
from __future__ import annotations

from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .corpus import CorpusManifest, DocIds, TsvFormat, write_tsv
from .index import InvertedIndex
from .p2p import ENGINE_MODES, Overlay, build_overlay, p2p_search
from .search import (
    BASELINE,
    ENGINES,
    EXPANDED,
    Query,
    SearchOutcome,
    search_exact,
    search_expanded,
)

if TYPE_CHECKING:
    from fractions import Fraction

RESULTS = TsvFormat(
    "# rootsearch-results v1",
    ("query_id", "query_word", "found_count", "relevant_count", "precision", "recall",
     "peers_contacted"),
    "rows",
    column_line=True,
)
SUMMARY = TsvFormat(
    "# rootsearch-summary v1",
    ("engine", "queries", "mean_precision", "mean_recall", "failures"),
    "rows",
    column_line=True,
)


def _fraction(n: int, d: int) -> Fraction:
    """``n/d`` exactly; ``fractions``, which loads ``decimal``, is imported on first use."""
    from fractions import Fraction
    return Fraction(n, d)


def precision(s_found: Iterable[str], s_relevant: Iterable[str]) -> Fraction:
    """Fraction of found documents that are relevant; 0 when nothing found."""
    found = set(s_found)
    if not found:
        return _fraction(0, 1)
    return _fraction(len(found.intersection(s_relevant)), len(found))


def recall(s_found: Iterable[str], s_relevant: Iterable[str]) -> Fraction:
    """Fraction of relevant documents found; vacuously 1 when none are relevant."""
    relevant = set(s_relevant)
    if not relevant:
        return _fraction(1, 1)
    return _fraction(len(relevant.intersection(s_found)), len(relevant))


def fixed4(n: int | Fraction, d: int = 1) -> str:
    """Render ``n/d`` with 4 decimal places, halves rounded up:
    floor(n/d * 10000 + 1/2), worked out in integers. ``n`` is an int, or
    an exact fraction whose own denominator joins ``d``."""
    d *= n.denominator
    n = n.numerator
    scaled = (20000 * n + d) // (2 * d)
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def _mean(ratios: list[tuple[int, int]]) -> tuple[int, int]:
    """The exact mean of the ratios ``n/d``, unreduced: their sum over the lcm
    of the denominators, divided by their count."""
    common = lcm(*{d for _, d in ratios})
    return sum(n * (common // d) for n, d in ratios), common * len(ratios)


class EvalRecord(NamedTuple):
    query_id: str
    word: str
    hits: int
    s_found: DocIds
    s_relevant: DocIds
    peers_contacted: int | None

    @property
    def p_ratio(self) -> tuple[int, int]:
        """Precision as (numerator, denominator); 0/1 when nothing was found."""
        return (self.hits, len(self.s_found)) if self.s_found else (0, 1)

    @property
    def r_ratio(self) -> tuple[int, int]:
        """Recall as (numerator, denominator); 1/1 when nothing is relevant."""
        return (self.hits, len(self.s_relevant)) if self.s_relevant else (1, 1)

    @property
    def precision(self) -> Fraction:
        return _fraction(*self.p_ratio)

    @property
    def recall(self) -> Fraction:
        return _fraction(*self.r_ratio)


def make_record(
    query_id: str,
    word: str,
    s_found: Iterable[str],
    s_relevant: Iterable[str],
    peers_contacted: int | None = None,
) -> EvalRecord:
    """The record of one query, from one intersection of the two sets, or none
    when the found tuple is the relevant one (a root-aware answer is the very
    ``docs_by_root`` tuple). A tuple is taken to be sorted and duplicate-free,
    as answers and postings are; another iterable is made one."""
    s_found = s_found if type(s_found) is tuple else tuple(sorted(set(s_found)))
    s_relevant = s_relevant if type(s_relevant) is tuple else tuple(sorted(set(s_relevant)))
    if s_found is s_relevant:
        hits = len(s_found)
    else:
        hits = len(frozenset(s_relevant).intersection(s_found))
    return EvalRecord(query_id, word, hits, s_found, s_relevant, peers_contacted)


class EvalReport:
    def __init__(
        self,
        records: dict[str, tuple[EvalRecord, ...]],
        corpus_digest: str,
        seed: int,
        patterns_version: str,
    ) -> None:
        self.records = records
        self.corpus_digest = corpus_digest
        self.seed = seed
        self.patterns_version = patterns_version

    @property
    def engine_names(self) -> tuple[str, ...]:
        return tuple(self.records)

    def mean_precision(self, engine: str) -> Fraction:
        return _fraction(*_mean([r.p_ratio for r in self.records[engine]]))

    def mean_recall(self, engine: str) -> Fraction:
        return _fraction(*_mean([r.r_ratio for r in self.records[engine]]))


class BaselineEngine:
    """Exact surface match over the full-corpus SIMPLE index."""

    name = BASELINE

    def __init__(self, index: InvertedIndex):
        self.index = index

    def run(self, query: Query) -> SearchOutcome:
        return SearchOutcome(search_exact(query, self.index))


class ExpandedEngine:
    """Root expansion wrapped around the same SIMPLE index."""

    name = EXPANDED

    def __init__(self, index: InvertedIndex, manifest: CorpusManifest):
        self.index = index
        self.lexicon = manifest.lexicon

    def run(self, query: Query) -> SearchOutcome:
        return SearchOutcome(search_expanded(query, self.index, self.lexicon))


class P2PEngine:
    """Routed search over an overlay, originating at a fixed peer."""

    def __init__(self, overlay: Overlay, origin: str):
        self.overlay = overlay
        self.origin = origin
        self.name = next(name for name, mode in ENGINE_MODES.items() if mode is overlay.mode)

    def run(self, query: Query) -> SearchOutcome:
        return p2p_search(query, self.overlay, self.origin)


def build_engines(
    manifest: CorpusManifest,
    names: Iterable[str] = ENGINES,
    origin: str = "peer-1",
) -> list[BaselineEngine | ExpandedEngine | P2PEngine]:
    """Construct the requested engines, each name once in first-seen order;
    the one dispatch from engine name to searcher, for ``run-eval`` and
    ``query``. The SIMPLE index is the manifest's ``docs_by_word`` and
    ``docs_by_root``, whose tuples the overlays' peers share.

    Raises:
        ValueError: an unknown engine name, or an ``origin`` that is not one
            of the manifest's peers; both are checked before anything is built.
    """
    names = list(dict.fromkeys(names))
    unknown = set(names) - set(ENGINES)
    if unknown:
        raise ValueError(f"unknown engines: {sorted(unknown)}")
    peer_ids = manifest.spec.peer_ids()
    if origin not in peer_ids:
        raise ValueError(
            f"unknown origin peer {origin!r}: the peers are {peer_ids[0]}..{peer_ids[-1]}"
        )
    engines: list[BaselineEngine | ExpandedEngine | P2PEngine] = []
    simple_index = None
    if BASELINE in names or EXPANDED in names:
        simple_index = InvertedIndex(manifest.docs_by_word, manifest.docs_by_root)
    for name in names:
        if name == BASELINE:
            engines.append(BaselineEngine(simple_index))
        elif name == EXPANDED:
            engines.append(ExpandedEngine(simple_index, manifest))
        else:
            engines.append(P2PEngine(build_overlay(manifest, ENGINE_MODES[name]), origin))
    return engines


def run_evaluation(
    manifest: CorpusManifest,
    engines: Iterable[BaselineEngine | ExpandedEngine | P2PEngine],
    corpus_digest: str = "",
) -> EvalReport:
    """Run every manifest query through every engine.

    Each query is parsed as ``query`` parses it; its relevant documents are
    those of the root its ``queries.tsv`` row records. An engine error propagates.
    """
    queries = [Query.parse(q.query_id, q.word) for q in manifest.queries]
    docs_by_root = manifest.docs_by_root
    relevant = [docs_by_root.get(q.root, ()) for q in manifest.queries]
    records = {
        engine.name: tuple(
            make_record(q.query_id, q.raw, out.result.found, ids, out.peers_contacted)
            for q, ids, out in zip(queries, relevant, map(engine.run, queries))
        )
        for engine in engines
    }
    return EvalReport(
        records=records,
        corpus_digest=corpus_digest,
        seed=manifest.spec.seed,
        patterns_version=manifest.patterns_version,
    )


def write_report(report: EvalReport, out_dir: str | Path) -> list[str]:
    """Write one results file per engine, then the summary file, each
    through ``write_tsv``, then delete the other engines' results files;
    return the summary table, its column line and its rows, for printing."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "corpus_digest": report.corpus_digest,
        "seed": report.seed,
        "patterns": report.patterns_version,
    }
    for engine in report.engine_names:
        rows = (
            f"{rec.query_id}\t{rec.word}\t{len(rec.s_found)}"
            f"\t{len(rec.s_relevant)}\t{fixed4(*rec.p_ratio)}\t{fixed4(*rec.r_ratio)}"
            f"\t{'-' if rec.peers_contacted is None else rec.peers_contacted}"
            for rec in report.records[engine]
        )
        write_tsv(out_dir / f"{engine}.tsv", RESULTS, {"engine": engine, **meta}, rows)

    summary = [
        f"{engine}\t{len(records)}\t{fixed4(*_mean([r.p_ratio for r in records]))}"
        f"\t{fixed4(*_mean([r.r_ratio for r in records]))}\t0"
        for engine, records in report.records.items()
    ]
    write_tsv(out_dir / "summary.tsv", SUMMARY, meta, summary)
    for stale in set(ENGINES).difference(report.engine_names):
        (out_dir / f"{stale}.tsv").unlink(missing_ok=True)
    return ["\t".join(SUMMARY.columns), *summary]

"""Precision/recall evaluation of the four engine configurations.

Per query: precision = |relevant ∩ found| / |found| and
recall = |relevant ∩ found| / |relevant|, held as exact fractions and only
rendered to 4 decimal places on output. Conventions for the empty cases,
flagged on each record: empty found set gives precision 0, empty relevant
set gives recall 1.

Relevance is mechanical ground truth: a document is relevant to a query
iff it shares the query word's root, read straight off the manifest.

Output files, all UTF-8 TSV:

    results/<engine>.tsv  query_id, query_word, found_count,
                          relevant_count, precision, recall,
                          peers_contacted ("-" for centralized engines)
    results/summary.tsv   per-engine mean precision/recall plus corpus
                          digest, seed and pattern-file version
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Protocol

from .corpus import CorpusManifest, relevant_set
from .errors import RootSearchError
from .index import IndexMode, InvertedIndex, build_index
from .p2p import ENGINE_MODES, Overlay, build_overlay, p2p_search
from .search import BASELINE, ENGINES, EXPANDED, Query, search_exact, search_expanded

_RESULTS_MAGIC = "# rootsearch-results v1"
_SUMMARY_MAGIC = "# rootsearch-summary v1"


def precision(s_found: Iterable[str], s_relevant: Iterable[str]) -> Fraction:
    """Fraction of found documents that are relevant; 0 when nothing found."""
    found = set(s_found)
    if not found:
        return Fraction(0)
    return Fraction(len(set(s_relevant) & found), len(found))


def recall(s_found: Iterable[str], s_relevant: Iterable[str]) -> Fraction:
    """Fraction of relevant documents found; vacuously 1 when none are relevant."""
    relevant = set(s_relevant)
    if not relevant:
        return Fraction(1)
    return Fraction(len(relevant & set(s_found)), len(relevant))


def fixed4(value: Fraction) -> str:
    """Render an exact fraction with 4 decimal places, halves rounded up."""
    scaled = math.floor(value * 10000 + Fraction(1, 2))
    return f"{scaled // 10000}.{scaled % 10000:04d}"


@dataclass(frozen=True)
class EvalRecord:
    query_id: str
    word: str
    engine: str
    s_found: frozenset[str]
    s_relevant: frozenset[str]
    precision: Fraction
    recall: Fraction
    peers_contacted: int | None
    error: str | None = None


def make_record(
    query_id: str,
    word: str,
    engine: str,
    s_found: Iterable[str],
    s_relevant: Iterable[str],
    peers_contacted: int | None = None,
    error: str | None = None,
) -> EvalRecord:
    found = frozenset(s_found)
    relevant = frozenset(s_relevant)
    return EvalRecord(
        query_id=query_id,
        word=word,
        engine=engine,
        s_found=found,
        s_relevant=relevant,
        precision=precision(found, relevant),
        recall=recall(found, relevant),
        peers_contacted=peers_contacted,
        error=error,
    )


@dataclass(eq=False)
class EvalReport:
    engine_names: tuple[str, ...]
    records: dict[str, tuple[EvalRecord, ...]]
    corpus_digest: str
    seed: int
    patterns_version: str

    def mean_precision(self, engine: str) -> Fraction:
        recs = self.records[engine]
        return sum((r.precision for r in recs), Fraction(0)) / len(recs)

    def mean_recall(self, engine: str) -> Fraction:
        recs = self.records[engine]
        return sum((r.recall for r in recs), Fraction(0)) / len(recs)

    def failures(self, engine: str) -> int:
        return sum(1 for r in self.records[engine] if r.error is not None)


@dataclass(frozen=True)
class EngineResult:
    found: frozenset[str]
    peers_contacted: int | None = None


class Engine(Protocol):
    name: str

    def run(self, query: Query) -> EngineResult: ...


class BaselineEngine:
    """Exact surface match over the full-corpus SIMPLE index."""

    name = BASELINE

    def __init__(self, index: InvertedIndex):
        self.index = index

    def run(self, query: Query) -> EngineResult:
        result = search_exact(query, self.index)
        return EngineResult(frozenset(result.found))


class ExpandedEngine:
    """Root expansion wrapped around the same SIMPLE index."""

    name = EXPANDED

    def __init__(self, index: InvertedIndex, manifest: CorpusManifest):
        self.index = index
        self.lexicon = manifest.lexicon

    def run(self, query: Query) -> EngineResult:
        result = search_expanded(query, self.index, self.lexicon)
        return EngineResult(frozenset(result.found))


class P2PEngine:
    """Routed search over an overlay, originating at a fixed peer."""

    def __init__(self, overlay: Overlay, origin: str):
        self.overlay = overlay
        self.origin = origin
        self.name = overlay.engine

    def run(self, query: Query) -> EngineResult:
        outcome = p2p_search(query, self.overlay, self.origin)
        return EngineResult(frozenset(outcome.result.found), outcome.peers_contacted)


def build_engines(
    manifest: CorpusManifest,
    names: Iterable[str] = ENGINES,
    origin: str = "peer-1",
) -> list[Engine]:
    """Construct the requested engines, sharing indexes where possible."""
    names = list(names)
    unknown = set(names) - set(ENGINES)
    if unknown:
        raise ValueError(f"unknown engines: {sorted(unknown)}")
    engines: list[Engine] = []
    simple_index = None
    if BASELINE in names or EXPANDED in names:
        simple_index = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
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
    engines: Iterable[Engine],
    corpus_digest: str = "",
) -> EvalReport:
    """Run every manifest query through every engine.

    Engine errors are captured per record (empty found set, error message)
    instead of aborting the run.
    """
    engines = list(engines)
    relevant = {q.query_id: relevant_set(q.word, manifest) for q in manifest.queries}
    records: dict[str, tuple[EvalRecord, ...]] = {}
    for engine in engines:
        recs = []
        for entry in manifest.queries:
            query = Query(entry.query_id, entry.word, entry.word)
            try:
                out = engine.run(query)
                recs.append(
                    make_record(
                        entry.query_id,
                        entry.word,
                        engine.name,
                        out.found,
                        relevant[entry.query_id],
                        out.peers_contacted,
                    )
                )
            except RootSearchError as exc:
                recs.append(
                    make_record(
                        entry.query_id,
                        entry.word,
                        engine.name,
                        frozenset(),
                        relevant[entry.query_id],
                        error=str(exc),
                    )
                )
        records[engine.name] = tuple(recs)
    return EvalReport(
        engine_names=tuple(e.name for e in engines),
        records=records,
        corpus_digest=corpus_digest,
        seed=manifest.spec.seed,
        patterns_version=manifest.patterns_version,
    )


def summary_lines(report: EvalReport) -> list[str]:
    """The summary table: a header, then one row of means per engine."""
    lines = ["engine\tqueries\tmean_precision\tmean_recall\tfailures"]
    for engine in report.engine_names:
        lines.append(
            f"{engine}\t{len(report.records[engine])}"
            f"\t{fixed4(report.mean_precision(engine))}"
            f"\t{fixed4(report.mean_recall(engine))}"
            f"\t{report.failures(engine)}"
        )
    return lines


def write_report(report: EvalReport, out_dir: str | Path) -> None:
    """Write one results file per engine plus the summary file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = (
        f"corpus_digest={report.corpus_digest}\tseed={report.seed}"
        f"\tpatterns={report.patterns_version}"
    )
    for engine in report.engine_names:
        lines = [f"{_RESULTS_MAGIC}\tengine={engine}\t{meta}"]
        lines.append(
            "query_id\tquery_word\tfound_count\trelevant_count"
            "\tprecision\trecall\tpeers_contacted"
        )
        for rec in report.records[engine]:
            peers = "-" if rec.peers_contacted is None else str(rec.peers_contacted)
            lines.append(
                f"{rec.query_id}\t{rec.word}\t{len(rec.s_found)}"
                f"\t{len(rec.s_relevant)}\t{fixed4(rec.precision)}"
                f"\t{fixed4(rec.recall)}\t{peers}"
            )
        (out_dir / f"{engine}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = [f"{_SUMMARY_MAGIC}\t{meta}", *summary_lines(report)]
    (out_dir / "summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")


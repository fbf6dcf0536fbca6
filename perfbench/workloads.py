"""The rootsearch workloads: set-up, the measured closed loop, the checks
against generator ground truth, and the traced run.

One client, one process, no threads, at most one child process at a time.
rootsearch is driven only from outside: fresh ``python -m rootsearch.cli``
processes and calls into the public functions of its modules.

Workloads, and why each is here:

- ``paper-eval``: one op is a fresh-process ``rootsearch run-eval`` over the
  paper's corpus shape (100 roots x 100 forms, 4 peers, 2 super-peers), the
  command users run to reproduce the table. Build- and I/O-heavy: start-up,
  manifest load, lexicon, one SIMPLE index, two overlays, 400 engine calls,
  report writing. Between ops the benchmark answers a few seeded noisy
  variants of vocabulary words in-process, once per engine; they give this
  workload its per-engine latencies, and they are the only traffic on which
  normalization and the light-stemming fallback do real work. A wrong root
  there is a quality count, not a failure.
- ``query-vocab``: 1,000 synthetic roots x 100 forms (100,000 documents,
  root pool and corpus seeded 2011, generated once per checkout and program
  version). One op answers one uniformly drawn vocabulary word once per
  engine.
  Lookup-heavy at 10x the paper's size; normalization and root resolution
  do one dict hit each. Uniform, because the program has no cache a skewed
  draw could favour.

Every measured quantity is sampled across the whole measuring window. Each
end-to-end duration is scaled to reference speed by the calibration loop
timed beside it (``speed.Calibration``), so that the slow stretches of a
shared host do not decide the figure; the raw wall-clock figures go into the
run metadata.
"""
from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from hashlib import sha256
from pathlib import Path
from time import perf_counter_ns as clock
from typing import NamedTuple

from rootsearch.corpus import CorpusSpec, generate_corpus, load_manifest, manifest_digest
from rootsearch.errors import UnknownRoot
from rootsearch.evaluation import (
    BaselineEngine,
    ExpandedEngine,
    P2PEngine,
    run_evaluation,
    write_report,
)
from rootsearch.index import IndexMode, build_index
from rootsearch.morphology import extract_root
from rootsearch.p2p import KIND_QUERY_FORWARD, KIND_RESULTS_BACK, build_overlay, p2p_search
from rootsearch.search import ENGINES, Query, search_exact, search_expanded

import inputs
from speed import Calibration
from tracer import Tracer, percentile, tail_percentile, timing_metrics

PAPER_SEED = 2011
VOCAB_POOL_SEED = 2011
VOCAB_SHAPE = dict(root_count=1000, words_per_root=100, peer_count=4,
                   superpeer_count=2, roots_per_peer=250)
SETUP_REPEATS = 3
# Query ops are drawn once per run and cycled; the program keeps no state
# between queries, so a repeat costs what the first answer did.
OP_POOL = 8192
# The traced run counts work exactly over this many query ops, so its
# counts repeat for a given seed.
COUNT_OPS = 1000
# paper-eval answers this many in-process noisy queries after each op.
PROBE_PER_OP = 25
CLI_STARTUPS = 5
EVAL_REPLICAS = 1
CLI_TIMEOUT_S = 60
# query-vocab times the calibration loop after every block of this many ns
BLOCK_NS = 100_000_000


@dataclass(frozen=True)
class Op:
    raw: str
    word: str
    root: str
    origin: str


class Doc(NamedTuple):
    doc_id: str
    word: str
    root: str
    peer_id: str


class Entry(NamedTuple):
    query_id: str
    word: str
    root: str


def read_rows(path: Path, width: int) -> list[list[str]]:
    rows = []
    for line in path.read_text("utf-8").splitlines():
        if line and not line.startswith("#"):
            row = line.split("\t")
            if len(row) != width:
                raise ValueError(f"{path}: {line!r} has {len(row)} fields, not {width}")
            rows.append(row)
    return rows


@dataclass(frozen=True)
class Truth:
    """Expected answers from the generator's own records (each document's
    word, root and peer, each query's root), read back from the files it
    wrote by this module rather than by ``load_manifest``, and never
    derived through the stemmer the engines use."""

    documents: list[Doc]
    queries: list[Entry]
    docs_of_word: dict[str, tuple[str, ...]]
    docs_of_root: dict[str, tuple[str, ...]]
    peer_of_doc: dict[str, str]
    manifest_sha256: str

    @classmethod
    def read(cls, corpus_dir: Path) -> "Truth":
        documents = [Doc(*row) for row in read_rows(corpus_dir / "manifest.tsv", 4)]
        queries = [Entry(*row) for row in read_rows(corpus_dir / "queries.tsv", 3)]
        by_word: dict[str, list[str]] = {}
        by_root: dict[str, list[str]] = {}
        for doc in documents:
            by_word.setdefault(doc.word, []).append(doc.doc_id)
            by_root.setdefault(doc.root, []).append(doc.doc_id)
        return cls(
            documents,
            queries,
            {w: tuple(sorted(ids)) for w, ids in by_word.items()},
            {r: tuple(sorted(ids)) for r, ids in by_root.items()},
            {doc.doc_id: doc.peer_id for doc in documents},
            sha256((corpus_dir / "manifest.tsv").read_bytes()).hexdigest(),
        )


@dataclass(eq=False)
class Env:
    """The serving state one set-up builds from a corpus directory."""

    manifest: object
    simple: object
    overlay_simple: object
    overlay_advanced: object
    advanced: object = None  # full-corpus ADVANCED index, traced runs only

    def calls(self, origin: str):
        """(engine, layer, function, extra args) for the four engines."""
        lexicon = self.manifest.lexicon
        return (
            ("baseline", "search.exact", search_exact, (self.simple,)),
            ("expanded", "search.expanded", search_expanded, (self.simple, lexicon)),
            ("p2p-simple", "p2p.simple", p2p_search, (self.overlay_simple, origin)),
            ("p2p-advanced", "p2p.advanced", p2p_search, (self.overlay_advanced, origin)),
        )


@dataclass
class Samples:
    """Durations (ns) of query ops and of each engine call with its parse."""

    ops: list[float] = field(default_factory=list)
    engines: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in ENGINES}
    )

    def extend(self, block: "Samples", factor: float = 1.0) -> None:
        """Add a block's durations, multiplied by ``factor``."""
        self.ops.extend(d * factor for d in block.ops)
        for name, durations in block.engines.items():
            self.engines[name].extend(d * factor for d in durations)


def null_span(*_args) -> nullcontext:
    return nullcontext(-1)


class Run:
    """One benchmark run: inputs, serving state, checks and outcomes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: Counter = Counter()
        self.meta: dict = {}
        self.metrics: dict[str, dict] = {}
        self.cli_env = dict(os.environ)
        self.cli_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def outcome(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    # -- set-up -----------------------------------------------------------------

    def generate(self, spec: CorpusSpec, corpus_dir: Path, pool=None) -> None:
        kwargs = {} if pool is None else {"root_pool": pool}
        start = clock()
        try:
            generate_corpus(spec, corpus_dir, **kwargs)
        except Exception as exc:
            pool_name = "built-in" if pool is None else "synthetic"
            raise RuntimeError(
                f"generate_corpus failed for {spec} ({pool_name} root pool): {exc!r}"
            ) from exc
        end = clock()
        self.tracer.record("corpus.generate", 0, -1, start, end)
        self.meta.setdefault("corpus_generate_s", []).append((end - start) / 1e9)
        if self.trace:
            files = [p for p in corpus_dir.rglob("*") if p.is_file()]
            self.meta["corpus_files_written"] = len(files)
            self.meta["corpus_bytes_written"] = sum(p.stat().st_size for p in files)

    def vocab_corpus(self, spec: CorpusSpec, pool: tuple[str, ...]) -> Path:
        """The query-vocab corpus, generated once per checkout and program
        version: writing its 100,000 files takes tens of seconds on a disk.
        A traced run generates its own, to time the generator."""
        if self.trace:
            self.generate(spec, self.work / "corpus", pool)
            return self.work / "corpus"
        key = sha256(repr((spec, VOCAB_POOL_SEED)).encode())
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                key.update(path.relative_to(src).as_posix().encode() + b"\0")
                key.update(path.read_bytes())
        cache = self.root / ".perfbench" / f"corpus-{key.hexdigest()[:16]}"
        if not (cache / "manifest.tsv").is_file():
            # generate beside it and rename, so a cut run leaves no half corpus
            self.generate(spec, self.work / "corpus", pool)
            os.rename(self.work / "corpus", cache)
        self.meta["corpus_cache"] = str(cache.relative_to(self.root))
        return cache

    def build_env(self, corpus_dir: Path) -> Env:
        span = self.tracer.span
        with span("corpus.load"):
            manifest = load_manifest(corpus_dir)
        with span("morphology.lexicon"):
            manifest.lexicon
        with span("index.build_simple"):
            simple = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
        with span("p2p.build_simple"):
            overlay_simple = build_overlay(manifest, IndexMode.SIMPLE)
        with span("p2p.build_advanced"):
            overlay_advanced = build_overlay(manifest, IndexMode.ADVANCED)
        env = Env(manifest, simple, overlay_simple, overlay_advanced)
        if self.trace:
            with span("index.build_advanced"):
                env.advanced = build_index(
                    manifest.documents, IndexMode.ADVANCED, manifest.lexicon
                )
        return env

    def setup(self, work: Path) -> list[float]:
        """Generate the corpus and build the serving state ``SETUP_REPEATS``
        times; return the user-mode CPU time (ns) of each set-up, scaled to
        reference speed.

        The kernel's share of a set-up is mostly creating the corpus files.
        On a shared host it swings between 0.2 s and 3.5 s for the same
        10,000 files (2 vCPUs, ext4 on a virtual disk), so it would decide
        the figure; wall-clock, user and system times of every set-up go
        into the metadata.
        """
        self.work = work
        if self.workload == "query-vocab":
            pool = inputs.synthetic_root_pool(VOCAB_SHAPE["root_count"], VOCAB_POOL_SEED)
            spec = CorpusSpec(seed=PAPER_SEED, **VOCAB_SHAPE)
            self.meta["pool_seed"] = VOCAB_POOL_SEED
            # generated once, so set-up here is the build alone
            self.corpus_dir = self.vocab_corpus(spec, pool)
        else:
            spec = CorpusSpec(seed=self.seed)
        scaled: list[float] = []
        times: dict[str, list[float]] = {"wall_s": [], "user_s": [], "system_s": []}
        calibration = Calibration()
        for k in range(SETUP_REPEATS):
            self.env = None
            gc.collect()
            start, before = clock(), resource.getrusage(resource.RUSAGE_SELF)
            if self.workload == "paper-eval":
                self.corpus_dir = work / f"corpus-{k}"
                self.generate(spec, self.corpus_dir)
            self.env = self.build_env(self.corpus_dir)
            after, end = resource.getrusage(resource.RUSAGE_SELF), clock()
            calibration.close()
            times["wall_s"].append((end - start) / 1e9)
            times["user_s"].append(after.ru_utime - before.ru_utime)
            times["system_s"].append(after.ru_stime - before.ru_stime)
            scaled.append(times["user_s"][-1] * 1e9 * calibration.factor())
        self.meta["setup"] = times
        self.truth = Truth.read(self.corpus_dir)
        self.ops = self.make_ops(self.truth)
        self.meta["corpus_spec"] = {
            "roots": spec.root_count, "words_per_root": spec.words_per_root,
            "peers": spec.peer_count, "super_peers": spec.superpeer_count,
            "seed": spec.seed,
        }
        self.meta["op_seed"] = f"{self.seed}:ops"
        return scaled

    def make_ops(self, truth: Truth) -> list[Op]:
        origins = sorted(set(truth.peer_of_doc.values()))
        rng = random.Random(f"{self.seed}:ops")
        docs = truth.documents
        ops = []
        for i in range(OP_POOL):
            doc = docs[rng.randrange(len(docs))]
            raw = doc.word
            if self.workload == "paper-eval":
                raw = inputs.noisy_variant(doc.word, rng)
            ops.append(Op(raw, doc.word, doc.root, origins[i % len(origins)]))
        return ops

    # -- query ops ----------------------------------------------------------------

    def check_query(self, op: Op, found: dict, degraded: bool) -> str | None:
        if found["p2p-simple"] != found["baseline"]:
            return f"{op.raw}: p2p-simple differs from baseline"
        if found["p2p-advanced"] != found["expanded"]:
            return f"{op.raw}: p2p-advanced differs from expanded"
        if self.workload == "paper-eval":
            self.quality["oov"] += not found["baseline"]
            if found["expanded"] == self.truth.docs_of_root[op.root]:
                self.quality["root_ok"] += 1
            elif degraded:
                self.quality["degraded"] += 1
            else:
                self.quality["root_wrong"] += 1
            return None
        if found["baseline"] != self.truth.docs_of_word[op.word]:
            return f"{op.raw}: baseline is not the documents holding the word"
        if found["expanded"] != self.truth.docs_of_root[op.root]:
            return f"{op.raw}: expanded is not the root group"
        return None

    def answer(self, i: int, traced: bool, samples: Samples) -> None:
        """Answer op ``i`` once per engine, Query.parse then the engine call,
        timing each engine call with its parse; check the answers."""
        op = self.ops[i % len(self.ops)]
        found: dict[str, tuple] = {}
        degraded = False
        problem = None
        record = self.tracer.record
        op_start = clock()
        op_span = self.tracer.open("op", i) if traced else -1
        try:
            for engine, layer, fn, args in self.env.calls(op.origin):
                t0 = clock()
                query = Query.parse(f"q{i}", op.raw)
                t1 = clock()
                result = fn(query, *args)
                t2 = clock()
                samples.engines[engine].append(t2 - t0)
                if traced:
                    record("normalize.parse", i, op_span, t0, t1)
                    record(layer, i, op_span, t1, t2)
                if engine.startswith("p2p"):
                    result = result.result
                found[engine] = result.found
                degraded = degraded or (engine == "expanded" and result.degraded)
        except Exception as exc:  # an op that raises is a failed op
            problem = f"{op.raw}: {type(exc).__name__}: {exc}"
        op_end = clock()
        if traced:
            self.tracer.spans[op_span][3:5] = [op_start, op_end]
        samples.ops.append(op_end - op_start)
        if problem is None:
            problem = self.check_query(op, found, degraded)
        self.outcome(problem)

    # -- run-eval ops ---------------------------------------------------------------

    def check_results(self, out_dir: Path, reference: dict | None) -> tuple[str | None, dict]:
        """Check one results directory. The first is checked row by row
        against the generator's records; every later one must be
        byte-identical to it."""
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        if reference is not None:
            return (None if files == reference else "results differ from the first op's"), reference
        truth, queries = self.truth, self.truth.queries
        expected_names = sorted([f"{e}.tsv" for e in ENGINES] + ["summary.tsv"])
        if sorted(files) != expected_names:
            return f"results files {sorted(files)}", files
        summary = files["summary.tsv"].decode("utf-8").splitlines()
        if f"corpus_digest={truth.manifest_sha256}" not in summary[0]:
            return "summary digest is not the manifest's SHA-256", files
        rows = {line.split("\t")[0]: line.split("\t") for line in summary[2:]}
        for engine in ENGINES:
            by_word = engine in ("baseline", "p2p-simple")
            precisions, recalls = [], []
            lines = files[f"{engine}.tsv"].decode("utf-8").splitlines()[2:]
            if len(lines) != len(queries):
                return f"{engine}.tsv has {len(lines)} rows", files
            for line, entry in zip(lines, queries):
                relevant = truth.docs_of_root[entry.root]
                want = truth.docs_of_word[entry.word] if by_word else relevant
                hit = Fraction(len(set(want) & set(relevant)))
                precisions.append(hit / len(want))
                recalls.append(hit / len(relevant))
                peers = "-"
                if engine.startswith("p2p"):
                    peers = str(len({truth.peer_of_doc[d] for d in want}))
                expected = [entry.query_id, entry.word, str(len(want)), str(len(relevant)),
                            fixed4(precisions[-1]), fixed4(recalls[-1]), peers]
                if line.split("\t") != expected:
                    return f"{engine}.tsv row {line!r}, expected {expected}", files
            mean_p = sum(precisions, Fraction(0)) / len(precisions)
            mean_r = sum(recalls, Fraction(0)) / len(recalls)
            expected = [engine, str(len(lines)), fixed4(mean_p), fixed4(mean_r), "0"]
            if rows.get(engine) != expected:
                return f"summary row {rows.get(engine)}, expected {expected}", files
        return None, files

    def cli(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "rootsearch.cli", *argv],
            env=self.cli_env, cwd=self.root, capture_output=True,
            timeout=CLI_TIMEOUT_S, check=False,
        )

    def cli_eval_op(self, out_dir: Path, _request: int) -> str | None:
        proc = self.cli("run-eval", "--corpus", str(self.corpus_dir), "--out", str(out_dir))
        if proc.returncode != 0:
            return f"run-eval exited {proc.returncode}: {proc.stderr[-300:]!r}"
        return None

    def replica_eval_op(self, out_dir: Path, request: int, traced: bool = True) -> str | None:
        """In-process run-eval: the public calls the CLI command makes, each
        under its own span when traced."""
        span = self.tracer.span if traced else null_span
        corpus_dir = self.corpus_dir
        with span("op", request) as op:
            with span("corpus.load", request, op):
                manifest = load_manifest(corpus_dir)
            with span("corpus.digest", request, op):
                digest = manifest_digest(corpus_dir)
            with span("morphology.lexicon", request, op):
                manifest.lexicon
            with span("index.build_simple", request, op):
                simple = build_index(manifest.documents, IndexMode.SIMPLE, manifest.lexicon)
            with span("p2p.build_simple", request, op):
                overlay_simple = build_overlay(manifest, IndexMode.SIMPLE)
            with span("p2p.build_advanced", request, op):
                overlay_advanced = build_overlay(manifest, IndexMode.ADVANCED)
            engines = [
                BaselineEngine(simple),
                ExpandedEngine(simple, manifest),
                P2PEngine(overlay_simple, "peer-1"),
                P2PEngine(overlay_advanced, "peer-1"),
            ]
            with span("evaluation.run", request, op):
                report = run_evaluation(manifest, engines, corpus_digest=digest)
            with span("evaluation.write_report", request, op):
                write_report(report, out_dir)
        return None

    def eval_op(self, run_op, i: int, reference: dict | None) -> int:
        """Run one run-eval op, check its results, return its duration (ns)."""
        out_dir = self.work / f"results-{i}"
        start = clock()
        problem = run_op(out_dir, i)
        elapsed = clock() - start
        if problem is None:
            problem, _ = self.check_results(out_dir, reference)
        self.outcome(problem)
        return elapsed

    def reference_results(self, run_op) -> dict | None:
        """One untimed op whose checked results are the reference for the rest."""
        out_dir = self.work / "results-reference"
        problem = run_op(out_dir, -1)
        reference = None
        if problem is None:
            problem, reference = self.check_results(out_dir, None)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.outcome(problem)
        return reference if problem is None else None

    def cli_startups(self) -> None:
        for i in range(CLI_STARTUPS):
            start = clock()
            proc = self.cli("--help")
            self.tracer.record("cli.startup", i, -1, start, clock())
            self.outcome(None if proc.returncode == 0 else f"--help exited {proc.returncode}")


def count_pass(env: Env, ops: list[Op], tracer: Tracer | None = None) -> Counter:
    """Exact work counts over ``ops``; times ``extract_root`` when traced."""
    counts: Counter = Counter()
    lexicon = env.manifest.lexicon
    for i, op in enumerate(ops):
        query = Query.parse(f"c{i}", op.raw)
        counts["ops"] += 1
        counts["normalize.changed"] += query.normalized != op.raw
        counts["morphology.lexicon_hit"] += query.normalized in lexicon
        start = clock()
        try:
            resolved = extract_root(query.normalized, lexicon)
        except UnknownRoot:
            resolved = None
        if tracer is not None:
            tracer.record("morphology.extract_root", i, -1, start, clock())
        if resolved is None:
            counts["morphology.degraded"] += 1
        elif resolved == op.root:
            counts["morphology.root_ok"] += 1
        else:
            counts["morphology.root_wrong"] += 1
        counts["search.expanded_terms"] += len(
            search_expanded(query, env.simple, lexicon).expanded_terms
        )
        for mode, overlay in (("simple", env.overlay_simple), ("advanced", env.overlay_advanced)):
            outcome = p2p_search(query, overlay, op.origin)
            counts[f"p2p.{mode}.peers_contacted"] += outcome.peers_contacted
            for message in outcome.messages:
                counts[f"p2p.{mode}.messages.{message.kind}"] += 1
                counts[f"p2p.{mode}.payload_keys"] += len(message.payload)
                if message.kind == KIND_QUERY_FORWARD:
                    counts[f"p2p.{mode}.forwards"] += 1
                elif message.kind == KIND_RESULTS_BACK and message.src in overlay.peers:
                    counts[f"p2p.{mode}.useful_forwards"] += bool(message.payload)
    for mode, index in (("simple", env.simple), ("advanced", env.advanced)):
        if index is None:
            continue
        counts[f"index.{mode}.keys"] = len(index.entries)
        # ADVANCED keys share one posting set per root: count what is stored
        stored = {id(ids): len(ids) for ids in index.entries.values()}
        counts[f"index.{mode}.postings"] = sum(stored.values())
    return counts


def count_metrics(counts: Counter) -> dict[str, dict]:
    """Per-layer metrics derived from exact counts, each ratio with its base."""
    ops = counts["ops"]

    def m(value, unit="count"):
        return {"value": value, "unit": unit}

    out = {
        "count.ops": m(ops),
        "normalize.changed_ratio": m(counts["normalize.changed"] / ops, "ratio"),
        "morphology.lexicon_hit_ratio": m(counts["morphology.lexicon_hit"] / ops, "ratio"),
        "morphology.root_ok_ratio": m(counts["morphology.root_ok"] / ops, "ratio"),
        "morphology.root_wrong": m(counts["morphology.root_wrong"]),
        "morphology.degraded": m(counts["morphology.degraded"]),
        "search.expanded_terms_per_query": m(counts["search.expanded_terms"] / ops),
    }
    for mode in ("simple", "advanced"):
        out[f"index.keys.{mode}"] = m(counts[f"index.{mode}.keys"])
        out[f"index.postings.{mode}"] = m(counts[f"index.{mode}.postings"])
        messages = 0
        for kind in ("QUERY_UP", KIND_QUERY_FORWARD, KIND_RESULTS_BACK):
            n = counts[f"p2p.{mode}.messages.{kind}"]
            messages += n
            out[f"p2p.{mode}.messages_per_query.{kind}"] = m(n / ops)
        out[f"p2p.{mode}.messages_per_query"] = m(messages / ops)
        out[f"p2p.{mode}.payload_keys_per_message"] = m(counts[f"p2p.{mode}.payload_keys"] / messages)
        out[f"p2p.{mode}.peers_contacted_per_query"] = m(counts[f"p2p.{mode}.peers_contacted"] / ops)
        forwards = counts[f"p2p.{mode}.forwards"]
        out[f"p2p.{mode}.forwards"] = m(forwards)
        out[f"p2p.{mode}.useful_forward_ratio"] = m(
            counts[f"p2p.{mode}.useful_forwards"] / forwards if forwards else 0.0, "ratio"
        )
    return out


def fixed4(value: Fraction) -> str:
    """Four decimal places, rounded half up."""
    scaled = (value * 10000 + Fraction(1, 2)).__floor__()
    return f"{scaled // 10000}.{scaled % 10000:04d}"


TIMED_LAYERS = (
    ("corpus.generate", "corpus.generate_s", "s"),
    ("corpus.load", "corpus.load_ms", "ms"),
    ("morphology.lexicon", "morphology.lexicon_ms", "ms"),
    ("morphology.extract_root", "morphology.extract_root_us", "us"),
    ("normalize.parse", "normalize.parse_us", "us"),
    ("index.build_simple", "index.build_simple_ms", "ms"),
    ("index.build_advanced", "index.build_advanced_ms", "ms"),
    ("search.exact", "search.exact_us", "us"),
    ("search.expanded", "search.expanded_us", "us"),
    ("p2p.build_simple", "p2p.build_simple_ms", "ms"),
    ("p2p.build_advanced", "p2p.build_advanced_ms", "ms"),
    ("p2p.simple", "p2p.simple_us", "us"),
    ("p2p.advanced", "p2p.advanced_us", "us"),
    ("evaluation.run", "evaluation.run_ms", "ms"),
    ("evaluation.write_report", "evaluation.write_report_ms", "ms"),
    ("cli.startup", "cli.startup_ms", "ms"),
)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Run:
    """Run one workload; the returned ``Run`` holds metrics, meta and outcomes."""
    state = Run(workload, seed, seconds, trace, root)
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    state.meta["scratch"] = {"dir": str(work.relative_to(root)), "filesystem": filesystem_of(work)}
    try:
        if trace:
            state.metrics = traced(state, work)
            spans_file = base / f"trace-{workload}.jsonl"
            state.tracer.write(spans_file)
            state.meta["spans_file"] = str(spans_file.relative_to(root))
        else:
            state.metrics = untraced(state, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return state


def untraced(state: Run, work: Path) -> dict[str, dict]:
    """End-to-end metrics; the only timers are the benchmark's own."""
    setups = state.setup(work)
    # read before the loop, so the benchmark's own samples do not count
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw, queries = Samples(), Samples()
    j = 0
    if state.workload == "paper-eval":
        run_op = state.cli_eval_op
        reference = state.reference_results(run_op)
        raw_ops, op_times = [], []
        calibration = Calibration()
        deadline = clock() + int(state.seconds * 1e9)
        while clock() < deadline:
            block = Samples()
            op_ns = state.eval_op(run_op, len(op_times), reference)
            for _ in range(PROBE_PER_OP):
                state.answer(j, False, block)
                j += 1
            calibration.close()
            raw_ops.append(op_ns)
            op_times.append(op_ns * calibration.factor())
            raw.extend(block)
            queries.extend(block, calibration.factor())
        # every child is a run-eval or smaller, so this is a run-eval's peak
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        state.meta["op_mix"] = {"run-eval process": len(op_times),
                                "in-process query, 4 engines": j}
    else:
        calibration = Calibration()
        deadline = clock() + int(state.seconds * 1e9)
        while clock() < deadline:
            block = Samples()
            block_end = clock() + BLOCK_NS
            while clock() < block_end:
                state.answer(j, False, block)
                j += 1
            calibration.close()
            raw.extend(block)
            queries.extend(block, calibration.factor())
        raw_ops, op_times = raw.ops, queries.ops
        state.meta["op_mix"] = {"query, 4 engines": j}
    tail = tail_percentile(len(op_times))
    state.meta["op_tail"] = {"percentile": tail, "samples": len(op_times)}
    metrics = {
        "setup_s": {"value": statistics.median(setups) / 1e9, "unit": "s"},
        "ops_per_s": {"value": len(op_times) / (sum(op_times) / 1e9), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(op_times) / 1e6, "unit": "ms"},
        "op_tail_ms": {"value": percentile(sorted(op_times), tail) / 1e6, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    for engine in ENGINES:
        metrics[f"{engine}.p50_us"] = {
            "value": statistics.median(queries.engines[engine]) / 1e3, "unit": "us"
        }
    state.meta["wall_clock"] = {
        "setup_s": statistics.median(state.meta["setup"]["wall_s"]),
        "ops_per_s": len(raw_ops) / (sum(raw_ops) / 1e9),
        "op_p50_ms": statistics.median(raw_ops) / 1e6,
        "op_tail_ms": percentile(sorted(raw_ops), tail) / 1e6,
        **{f"{engine}.p50_us": statistics.median(raw.engines[engine]) / 1e3
           for engine in ENGINES},
    }
    state.meta["calibration_median_ns"] = statistics.median(calibration.timings)
    if state.workload == "paper-eval":
        state.meta["noisy"] = {"ops": j, **{
            f"{key}_share": state.quality[key] / j
            for key in ("root_ok", "root_wrong", "degraded", "oov")
        }}
    return metrics


def traced(state: Run, work: Path) -> dict[str, dict]:
    """Per-layer metrics from spans around each public call, exact counts
    over a fixed op set, and the overhead of tracing: traced and untraced
    ops alternate, so both see the same machine."""
    state.setup(work)
    counts = count_pass(state.env, state.ops[:COUNT_OPS], state.tracer)
    state.meta["counts"] = dict(sorted(counts.items()))
    replica = state.replica_eval_op
    reference = state.reference_results(replica)
    plain, spanned = Samples(), Samples()
    deadline = clock() + int(state.seconds * 1e9)
    i = 0
    if state.workload == "paper-eval":
        evals: tuple[list, list] = ([], [])  # untraced, traced durations
        while clock() < deadline:
            traced_op = i % 2 == 1
            evals[traced_op].append(
                state.eval_op(partial(replica, traced=traced_op), i, reference)
            )
            for j in range(i * PROBE_PER_OP, (i + 1) * PROBE_PER_OP):
                state.answer(j, True, spanned)
            i += 1
        plain_ops, spanned_ops = evals
    else:
        while clock() < deadline:
            state.answer(i, i % 2 == 1, spanned if i % 2 else plain)
            i += 1
        plain_ops, spanned_ops = plain.ops, spanned.ops
        for k in range(EVAL_REPLICAS):
            state.eval_op(replica, k, reference)
    state.cli_startups()

    metrics = count_metrics(counts)
    metrics["corpus.files_written"] = {"value": state.meta["corpus_files_written"], "unit": "count"}
    metrics["corpus.bytes_written"] = {"value": state.meta["corpus_bytes_written"], "unit": "bytes"}
    durations = state.tracer.durations()
    for span_name, metric, unit in TIMED_LAYERS:
        metrics.update(timing_metrics(metric, unit, durations[span_name]))
    plain_p50 = statistics.median(plain_ops)
    spanned_p50 = statistics.median(spanned_ops)
    metrics["trace.untraced_op_p50_us"] = {"value": plain_p50 / 1e3, "unit": "us"}
    metrics["trace.traced_op_p50_us"] = {"value": spanned_p50 / 1e3, "unit": "us"}
    metrics["trace.overhead_ratio"] = {"value": spanned_p50 / plain_p50 - 1, "unit": "ratio"}
    state.meta["op_mix"] = {"untraced ops": len(plain_ops), "traced ops": len(spanned_ops),
                            "count-pass ops": counts["ops"]}
    return metrics


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, fstype = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        if (target == point or target.startswith(point.rstrip("/") + "/")) and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype

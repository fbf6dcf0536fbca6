"""Deterministic corpus, query-set and peer-assignment generation.

The generated collection is fully reproducible from (spec, seed, pattern
file): root selection, per-root template order, query word choice and the
collision fixups below are all drawn from one seeded generator.

Layout on disk, under the chosen corpus directory:

    manifest.tsv            one ``doc_id TAB word TAB root TAB peer_id`` per
                            document, after a ``#`` header carrying the
                            generation parameters and seed
    queries.tsv             one ``query_id TAB word TAB root`` per query
    <peer_id>/<doc_id>.txt  document body: the single word

Peer assignment is structural, not random: the selected roots are sorted
canonically and dealt to peers in contiguous blocks of ``roots_per_peer``;
consecutive peers share a super-peer.
"""
from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import CorpusSpecError, InsufficientRoots, PatternCollision
from .morphology import PatternInventory, RootLexicon, derive, extract_root, load_patterns
from .normalize import normalize

DEFAULT_SEED = 2011

MANIFEST_NAME = "manifest.tsv"
QUERIES_NAME = "queries.tsv"

_MANIFEST_MAGIC = "# rootsearch-manifest v1"
_QUERIES_MAGIC = "# rootsearch-queries v1"

# Built-in triliteral root inventory (normalized forms). The first two are
# always selected so every generated corpus shares a stable vocabulary
# anchor for demos and tests.
ANCHOR_ROOTS = ("اكل", "لعب")

ROOT_INVENTORY: tuple[str, ...] = ANCHOR_ROOTS + (
    "كتب", "درس", "علم", "عمل", "شرب", "ذهب", "جلس", "فتح", "نصر", "ضرب",
    "سمع", "بصر", "نظر", "خرج", "دخل", "قتل", "حمل", "كسر", "جمع", "قطع",
    "رفع", "وضع", "حفظ", "فهم", "شكر", "صبر", "غفر", "رحم", "خلق", "رزق",
    "ملك", "حكم", "عدل", "ظلم", "صدق", "كذب", "وعد", "نزل", "صعد", "وقف",
    "ركض", "قفز", "سبح", "طبخ", "خبز", "زرع", "حصد", "غرس", "هدم", "سكن",
    "رحل", "سفر", "وصل", "رجع", "عود", "ختم", "كمل", "نقص", "كثر", "كبر",
    "صغر", "طول", "قصر", "وسع", "ضيق", "سرع", "ضعف", "مرض", "ولد", "موت",
    "حضر", "غيب", "نوم", "صحو", "منع", "سمح", "طلب", "وجد", "فقد", "بحث",
    "جوب", "قول", "نطق", "سكت", "صرخ", "همس", "رقص", "رسم", "لون", "صور",
    "نسج", "خيط", "قصد", "عرف", "جهل", "ذكر", "حسب", "عدد", "قسم", "جبر",
    "حرث", "لبس", "غسل", "مسح", "دفع", "جذب", "شهد", "برد", "نسي", "مشي",
    "جري", "بني", "سقي", "شفي", "غني", "عطي", "قوي", "قلل",
)

# Appended, possibly repeatedly, when two roots derive the same surface form;
# the later root's word gets the first unused variant.
_DISAMBIGUATION_CLITICS = ("ها", "هم", "كم", "هن", "نا", "ه")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated collection; defaults give the 10,000-doc corpus."""

    root_count: int = 100
    words_per_root: int = 100
    peer_count: int = 4
    superpeer_count: int = 2
    roots_per_peer: int = 25
    seed: int = DEFAULT_SEED

    @property
    def total_documents(self) -> int:
        return self.root_count * self.words_per_root

    def validate(self) -> None:
        if min(self.root_count, self.words_per_root, self.peer_count, self.superpeer_count, self.roots_per_peer) < 1:
            raise CorpusSpecError("all corpus spec counts must be >= 1")
        if self.root_count != self.peer_count * self.roots_per_peer:
            raise CorpusSpecError(
                f"root_count must equal peer_count * roots_per_peer "
                f"({self.root_count} != {self.peer_count} * {self.roots_per_peer})"
            )
        if self.peer_count % self.superpeer_count != 0:
            raise CorpusSpecError(
                f"peer_count must be divisible by superpeer_count "
                f"({self.peer_count} % {self.superpeer_count} != 0)"
            )


@dataclass(frozen=True)
class Document:
    doc_id: str
    word: str
    root: str
    peer_id: str


@dataclass(frozen=True)
class QueryEntry:
    query_id: str
    word: str
    root: str


@dataclass(eq=False)
class CorpusManifest:
    """Ground truth for a generated corpus: every document's word, root and peer."""

    spec: CorpusSpec
    documents: tuple[Document, ...]
    roots: tuple[str, ...]
    queries: tuple[QueryEntry, ...]
    patterns_version: str

    @cached_property
    def lexicon(self) -> RootLexicon:
        lex = RootLexicon()
        for doc in self.documents:
            lex.add(doc.word, doc.root)
        return lex

    @cached_property
    def docs_by_root(self) -> dict[str, frozenset[str]]:
        grouped: dict[str, set[str]] = {}
        for doc in self.documents:
            grouped.setdefault(doc.root, set()).add(doc.doc_id)
        return {root: frozenset(ids) for root, ids in grouped.items()}

    @cached_property
    def docs_by_peer(self) -> dict[str, tuple[Document, ...]]:
        grouped: dict[str, list[Document]] = {}
        for doc in self.documents:
            grouped.setdefault(doc.peer_id, []).append(doc)
        return {peer: tuple(docs) for peer, docs in grouped.items()}

    @cached_property
    def peers_of_root(self) -> dict[str, frozenset[str]]:
        grouped: dict[str, set[str]] = {}
        for doc in self.documents:
            grouped.setdefault(doc.root, set()).add(doc.peer_id)
        return {root: frozenset(peers) for root, peers in grouped.items()}

    def peer_ids(self) -> tuple[str, ...]:
        return tuple(f"peer-{i}" for i in range(1, self.spec.peer_count + 1))

    def superpeer_ids(self) -> tuple[str, ...]:
        return tuple(f"sp-{j}" for j in range(1, self.spec.superpeer_count + 1))

    def superpeer_children(self) -> dict[str, tuple[str, ...]]:
        per_sp = self.spec.peer_count // self.spec.superpeer_count
        peers = self.peer_ids()
        return {
            sp: peers[j * per_sp : (j + 1) * per_sp]
            for j, sp in enumerate(self.superpeer_ids())
        }


def _select_roots(spec: CorpusSpec, pool: tuple[str, ...], rng: random.Random) -> list[str]:
    if spec.root_count > len(pool):
        raise InsufficientRoots(
            f"root inventory has {len(pool)} roots, spec needs {spec.root_count}"
        )
    anchors = [r for r in ANCHOR_ROOTS if r in pool][: spec.root_count]
    others = [r for r in pool if r not in anchors]
    return anchors + rng.sample(others, spec.root_count - len(anchors))


def _disambiguate(word: str, used: dict[str, str]) -> str:
    for repeat in itertools.count(1):
        for clitic in _DISAMBIGUATION_CLITICS:
            candidate = word + clitic * repeat
            if candidate not in used:
                return candidate
    raise AssertionError("unreachable")


def generate_corpus(
    spec: CorpusSpec,
    out_dir: str | Path,
    inventory: PatternInventory | None = None,
    root_pool: tuple[str, ...] = ROOT_INVENTORY,
) -> CorpusManifest:
    """Generate documents, manifest and query set under ``out_dir``.

    Raises:
        CorpusSpecError: a spec invariant is violated, or more words per
            root were requested than the template inventory can supply.
        InsufficientRoots: the root pool is shorter than ``root_count``.
        PatternCollision: a template pair produced the same surface form
            for one root (a broken template set).
    """
    spec.validate()
    inventory = inventory or load_patterns()
    if spec.words_per_root > len(inventory):
        raise CorpusSpecError(
            f"words_per_root {spec.words_per_root} exceeds the "
            f"{len(inventory)}-template inventory"
        )
    rng = random.Random(spec.seed)
    roots = sorted(_select_roots(spec, root_pool, rng))

    doc_width = max(5, len(str(spec.total_documents - 1)))
    query_width = max(3, len(str(spec.root_count - 1)))
    documents: list[Document] = []
    queries: list[QueryEntry] = []
    used: dict[str, str] = {}
    doc_index = 0
    for root_index, root in enumerate(roots):
        chosen = rng.sample(inventory.patterns, spec.words_per_root)
        words: list[str] = []
        raw_surfaces: set[str] = set()
        for pattern in chosen:
            word = derive(root, pattern)
            # two templates yielding one surface for one root is a broken
            # template set; a clash with an already-claimed word (another
            # root, or a disambiguated sibling) just gets a clitic appended
            if word in raw_surfaces:
                raise PatternCollision(
                    f"root {root}: pattern {pattern.pattern_id} repeats "
                    f"an earlier surface form {word!r}"
                )
            raw_surfaces.add(word)
            if word in used:
                word = _disambiguate(word, used)
            used[word] = root
            words.append(word)
        peer_id = f"peer-{root_index // spec.roots_per_peer + 1}"
        for word in words:
            documents.append(
                Document(f"d{doc_index:0{doc_width}d}", word, root, peer_id)
            )
            doc_index += 1
        query_word = words[rng.randrange(len(words))]
        queries.append(QueryEntry(f"q{root_index:0{query_width}d}", query_word, root))

    manifest = CorpusManifest(
        spec=spec,
        documents=tuple(documents),
        roots=tuple(roots),
        queries=tuple(queries),
        patterns_version=inventory.version,
    )
    _write_corpus(manifest, Path(out_dir))
    return manifest


def _header_fields(manifest: CorpusManifest) -> str:
    spec = manifest.spec
    return "\t".join(
        (
            f"seed={spec.seed}",
            f"roots={spec.root_count}",
            f"words_per_root={spec.words_per_root}",
            f"peers={spec.peer_count}",
            f"super_peers={spec.superpeer_count}",
            f"roots_per_peer={spec.roots_per_peer}",
            f"patterns={manifest.patterns_version}",
        )
    )


def _write_corpus(manifest: CorpusManifest, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    header = _header_fields(manifest)

    lines = [f"{_MANIFEST_MAGIC}\t{header}"]
    lines += [
        f"{d.doc_id}\t{d.word}\t{d.root}\t{d.peer_id}" for d in manifest.documents
    ]
    (out_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = [f"{_QUERIES_MAGIC}\t{header}"]
    lines += [f"{q.query_id}\t{q.word}\t{q.root}" for q in manifest.queries]
    (out_dir / QUERIES_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")

    for peer_id in manifest.peer_ids():
        (out_dir / peer_id).mkdir(exist_ok=True)
    for doc in manifest.documents:
        (out_dir / doc.peer_id / f"{doc.doc_id}.txt").write_text(
            doc.word + "\n", encoding="utf-8"
        )


def _parse_header(line: str, magic: str) -> dict[str, str]:
    if not line.startswith(magic):
        raise ValueError(f"expected header {magic!r}, got {line[:40]!r}")
    fields = {}
    for part in line.split("\t")[1:]:
        key, _, value = part.partition("=")
        fields[key] = value
    return fields


def load_manifest(corpus_dir: str | Path) -> CorpusManifest:
    """Reload a generated corpus from its manifest and query files."""
    corpus_dir = Path(corpus_dir)
    manifest_lines = (corpus_dir / MANIFEST_NAME).read_text("utf-8").splitlines()
    fields = _parse_header(manifest_lines[0], _MANIFEST_MAGIC)
    spec = CorpusSpec(
        root_count=int(fields["roots"]),
        words_per_root=int(fields["words_per_root"]),
        peer_count=int(fields["peers"]),
        superpeer_count=int(fields["super_peers"]),
        roots_per_peer=int(fields["roots_per_peer"]),
        seed=int(fields["seed"]),
    )
    documents = []
    for line in manifest_lines[1:]:
        if not line.strip():
            continue
        doc_id, word, root, peer_id = line.split("\t")
        documents.append(Document(doc_id, word, root, peer_id))

    query_lines = (corpus_dir / QUERIES_NAME).read_text("utf-8").splitlines()
    _parse_header(query_lines[0], _QUERIES_MAGIC)
    queries = []
    for line in query_lines[1:]:
        if not line.strip():
            continue
        query_id, word, root = line.split("\t")
        queries.append(QueryEntry(query_id, word, root))

    return CorpusManifest(
        spec=spec,
        documents=tuple(documents),
        roots=tuple(sorted({d.root for d in documents})),
        queries=tuple(queries),
        patterns_version=fields["patterns"],
    )


def relevant_set(word: str, manifest: CorpusManifest) -> frozenset[str]:
    """All doc_ids whose document shares ``word``'s root (the relevance oracle).

    Raises:
        UnknownRoot: the word resolves to no root at all.
    """
    root = extract_root(normalize(word), manifest.lexicon)
    return manifest.docs_by_root.get(root, frozenset())


def manifest_digest(corpus_dir: str | Path) -> str:
    """SHA-256 of the manifest file; identifies a corpus run."""
    data = (Path(corpus_dir) / MANIFEST_NAME).read_bytes()
    return hashlib.sha256(data).hexdigest()


def tree_digest(directory: str | Path) -> str:
    """SHA-256 over every file under ``directory`` (sorted relative paths)."""
    directory = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()

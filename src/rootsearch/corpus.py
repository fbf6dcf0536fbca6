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
``p2p.build_overlay`` puts consecutive peers under one super-peer.

Every TSV file rootsearch writes (these two, and ``evaluation``'s results
and summary) has one format, a ``TsvFormat``: a header line (magic, then
``key=value`` fields), an optional column line, and fixed-width rows whose
first field is an id. ``write_tsv`` writes each through a sibling ``.part``
file renamed into place. On load, one walk over the rows (``_checked_rows``)
splits and checks them, naming the file and line of the first bad one;
``read_table`` uses it alone. Both corpus files carry one header made from
the spec, and a query file with another header is rejected.

The spec and the rows (``CorpusSpec``, ``Document``, ``QueryEntry``) are
immutable ``NamedTuple``s; ``CorpusManifest`` is a plain class whose
groupings (lexicon, ``docs_by_root``, ``docs_by_peer``) are built on first
use. ``load_manifest`` keeps a fast path: it builds every manifest row in
one pass, sharing one string per distinct root and peer id, then checks the
whole file at once (an empty field, a repeated doc id, whitespace in a
field, a peer id the header's peer count does not name, a distinct root
that ``morphology.is_root`` rejects) by scans of sets and of the text, and
walks the rows only to name the line of a fault it found. It builds the
lexicon before it returns, so a word filed under two roots is named by its
line too. ``load_patterns`` reads the template file, ``PATTERNS``, through
``read_table``.

``generate_corpus`` writes ``manifest.tsv`` last, after the bodies and
``queries.tsv``, so a run that fails on a body leaves no loadable manifest
in a fresh directory. ``gc_paused`` keeps the cyclic garbage collector off
during the bulk builds, here and in ``index`` and ``p2p``.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
from functools import cached_property, wraps
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

from .errors import CorpusSpecError, EmptyAfterNormalization, InsufficientRoots, PatternCollision
from .morphology import DerivationPattern, PatternInventory, RootLexicon, bad_template
from .morphology import derive, extract_root, is_root
from .normalize import normalize

DEFAULT_SEED = 2011

MANIFEST_NAME = "manifest.tsv"
QUERIES_NAME = "queries.tsv"

# the corpus header's fields, in line order, and the CorpusSpec field each
# holds; the pattern-file version follows them as ``patterns``
_SPEC_HEADER = {
    "seed": "seed",
    "roots": "root_count",
    "words_per_root": "words_per_root",
    "peers": "peer_count",
    "super_peers": "superpeer_count",
    "roots_per_peer": "roots_per_peer",
}

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

# every str.isspace() code point that splitlines() and the tab split leave in a field
_FIELD_SPACES = "\x1f \xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B)))

# Appended, possibly repeatedly, when two roots derive the same surface form;
# the later root's word gets the first unused variant.
_DISAMBIGUATION_CLITICS = ("ها", "هم", "كم", "هن", "نا", "ه")


class CorpusSpec(NamedTuple):
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

    def peer_ids(self) -> tuple[str, ...]:
        return tuple(f"peer-{i}" for i in range(1, self.peer_count + 1))

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


class Document(NamedTuple):
    doc_id: str
    word: str
    root: str
    peer_id: str


class QueryEntry(NamedTuple):
    query_id: str
    word: str
    root: str


class TsvFormat(NamedTuple):
    """One kind of TSV file rootsearch writes: a header line, ``magic``
    then ``key=value`` fields; the column line if ``column_line``; then
    rows of ``len(columns)`` fields whose first is an id. ``noun`` names
    the rows in errors."""

    magic: str
    columns: tuple[str, ...]
    noun: str
    column_line: bool = False


MANIFEST = TsvFormat("# rootsearch-manifest v1", Document._fields, "documents")
QUERIES = TsvFormat("# rootsearch-queries v1", QueryEntry._fields, "queries")
PATTERNS = TsvFormat("# rootsearch-patterns v1", DerivationPattern._fields, "patterns")


DocIds = tuple[str, ...]
# a row's fields -> why the row is bad, or None
RowCheck = Callable[[list[str]], str | None]

_Build = TypeVar("_Build", bound=Callable)


def gc_paused(build: _Build) -> _Build:
    """Run ``build`` with the cyclic garbage collector off, then restore its
    earlier state, also when ``build`` raises; a call made while the
    collector is already off leaves it off.

    The pause is safe because the bulk builds it wraps create no reference
    cycles: rows, tuples, strings and dicts that refer only downwards, which
    reference counting frees on its own. Left on, the collector runs
    hundreds of young collections and a full one over a 100,000-document
    build and finds nothing to free. The pause is process-wide: rootsearch
    is single-threaded, so no other thread's allocations go uncollected.
    """

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def postings(docs: Iterable[Document], key: Callable[[Document], str]) -> dict[str, DocIds]:
    """``key(doc)`` -> sorted, duplicate-free doc ids; the one grouping of
    documents by key. A key's first id is a 1-tuple and only its second makes
    a list, so the one-id word keys of a generated corpus leave no list for
    the collector."""
    grouped: dict = {}
    for doc in docs:
        k = key(doc)
        ids = grouped.get(k)
        if ids is None:
            grouped[k] = (doc.doc_id,)
        elif type(ids) is tuple:
            grouped[k] = [ids[0], doc.doc_id]
        else:
            ids.append(doc.doc_id)
    for k, ids in grouped.items():
        if type(ids) is list:
            grouped[k] = tuple(dict.fromkeys(sorted(ids)))
    return grouped


class CorpusManifest:
    """Ground truth for a generated corpus: every document's word, root and peer."""

    def __init__(
        self,
        spec: CorpusSpec,
        documents: tuple[Document, ...],
        roots: tuple[str, ...],
        queries: tuple[QueryEntry, ...],
        patterns_version: str,
    ) -> None:
        self.spec = spec
        self.documents = documents
        self.roots = roots
        self.queries = queries
        self.patterns_version = patterns_version

    @cached_property
    @gc_paused
    def lexicon(self) -> RootLexicon:
        return RootLexicon((doc.word, doc.root) for doc in self.documents)

    @cached_property
    def docs_by_root(self) -> dict[str, DocIds]:
        return postings(self.documents, attrgetter("root"))

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


@gc_paused
def generate_corpus(
    spec: CorpusSpec,
    out_dir: str | Path,
    inventory: PatternInventory | None = None,
    root_pool: tuple[str, ...] = ROOT_INVENTORY,
) -> CorpusManifest:
    """Generate documents, manifest and query set under ``out_dir``.

    Raises:
        CorpusSpecError: a spec invariant is violated, the packaged pattern
            file fails ``load_patterns``, or more words per root were
            requested than the template inventory can supply.
        InsufficientRoots: the root pool is shorter than ``root_count``.
        PatternCollision: a template pair produced the same surface form
            for one root (a broken template set).
        OSError: a file could not be written; the message names its path.
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
        peer_id = spec.peer_ids()[root_index // spec.roots_per_peer]
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


def _write_corpus(manifest: CorpusManifest, out_dir: Path) -> None:
    """Write the bodies, then the query file, then the manifest, both files
    under one header line made from the spec.

    Each body is one ``os.open``/``os.write``/``os.close`` on a path built as
    one string: a ``Path`` join and a text wrapper per one-word file cost
    more user CPU than the write itself.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for peer_id in manifest.spec.peer_ids():
        (out_dir / peer_id).mkdir(exist_ok=True)
    base = os.fspath(out_dir)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for doc in manifest.documents:
        path = f"{base}/{doc.peer_id}/{doc.doc_id}.txt"
        body = f"{doc.word}\n".encode()
        fd = os.open(path, flags, 0o666)
        try:
            written = os.write(fd, body)
        finally:
            os.close(fd)
        if written != len(body):
            raise OSError(f"{path}: wrote {written} of {len(body)} bytes")

    header = {key: getattr(manifest.spec, name) for key, name in _SPEC_HEADER.items()}
    header["patterns"] = manifest.patterns_version
    write_tsv(out_dir / QUERIES_NAME, QUERIES, header,
              (f"{q.query_id}\t{q.word}\t{q.root}" for q in manifest.queries))
    write_tsv(out_dir / MANIFEST_NAME, MANIFEST, header,
              (f"{d.doc_id}\t{d.word}\t{d.root}\t{d.peer_id}" for d in manifest.documents))


def _header_line(magic: str, fields: dict[str, object]) -> str:
    """The first line of every TSV file rootsearch writes: ``magic``, then
    one ``key=value`` per field, tab-separated."""
    return "\t".join([magic, *(f"{key}={value}" for key, value in fields.items())])


def write_tsv(path: Path, fmt: TsvFormat, fields: dict[str, object], rows: Iterable[str]) -> None:
    """Write a ``fmt`` file: its header line, its column line if it has one,
    then ``rows``, each one line of tab-separated fields; the one writer of
    every TSV file.

    The text goes to a sibling ``.part`` file that is then renamed onto
    ``path``, so a failed write leaves no partial file under ``path``, and
    a file already there stays as it was.
    """
    lines = [_header_line(fmt.magic, fields)]
    if fmt.column_line:
        lines.append("\t".join(fmt.columns))
    lines.extend(rows)
    part = path.with_name(path.name + ".part")
    try:
        part.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _parse_header(lines: list[str], path: Path, fmt: TsvFormat) -> dict[str, str]:
    """The ``key=value`` fields of a ``fmt`` file's header line; raises,
    naming the line, unless the file starts with ``fmt``'s magic and, if it
    has one, its column line."""
    if not lines:
        raise CorpusSpecError(f"{path}:1: empty file, expected header {fmt.magic!r}")
    magic, *parts = lines[0].split("\t")
    if magic != fmt.magic:
        raise CorpusSpecError(f"{path}:1: expected header {fmt.magic!r}, got {lines[0][:40]!r}")
    columns = "\t".join(fmt.columns)
    if fmt.column_line and lines[1:2] != [columns]:
        got = lines[1][:40] if len(lines) > 1 else ""
        raise CorpusSpecError(f"{path}:2: expected column line {columns!r}, got {got!r}")
    return dict(part.partition("=")[::2] for part in parts)


def _header_field(fields: dict[str, str], name: str, path: Path, convert=str):
    try:
        return convert(fields[name])
    except KeyError:
        raise CorpusSpecError(f"{path}:1: header has no {name!r} field") from None
    except ValueError:
        raise CorpusSpecError(
            f"{path}:1: header field {name}={fields[name]!r} is not an integer"
        ) from None


def _checked_rows(
    path: Path, lines: list[str], fmt: TsvFormat, check: RowCheck | None = None
) -> list[list[str]]:
    """The rows of the ``fmt`` file ``lines``, split into fields, blank lines
    skipped: the one walk that splits and checks them.

    Raises the error naming the first row whose field count is not
    ``fmt``'s, that holds an empty field, whose first field repeats an
    earlier row's, or for which ``check(fields)`` returns a message.
    """
    width = len(fmt.columns)
    id_name = fmt.columns[0].replace("_", " ")
    first_line: dict[str, int] = {}
    rows: list[list[str]] = []
    start = 1 + fmt.column_line
    for lineno, line in enumerate(lines[start:], start + 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            problem = f"expected {width} tab-separated fields, got {len(fields)}"
        elif "" in fields:
            problem = f"empty {fmt.columns[fields.index('')].replace('_', ' ')} field"
        elif fields[0] in first_line:
            problem = f"{id_name} {fields[0]!r} repeats line {first_line[fields[0]]}"
        else:
            problem = check(fields) if check else None
        if problem:
            raise CorpusSpecError(f"{path}:{lineno}: {problem}")
        first_line[fields[0]] = lineno
        rows.append(fields)
    return rows


def read_table(
    path: Path,
    fmt: TsvFormat,
    header: dict[str, str] | None = None,
    check: RowCheck | None = None,
) -> tuple[dict[str, str], list[list[str]]]:
    """The header fields and the rows, split into fields, of a ``fmt`` file
    that ``write_tsv`` wrote; blank lines are skipped.

    Raises:
        CorpusSpecError: the file does not start with ``fmt``'s header line
            and column line, its header fields are not ``header`` (when
            given), a row's field count is not ``fmt``'s, a row holds an
            empty field, a row's first field repeats, ``check(fields)``
            returns a message for a row, or no row follows the header;
            naming the file, and the line if any.
    """
    lines = path.read_text("utf-8").splitlines()
    fields = _parse_header(lines, path, fmt)
    if header is not None and fields != header:
        key = next(k for k in {**header, **fields} if fields.get(k) != header.get(k))
        raise CorpusSpecError(
            f"{path}:1: header field {key!r} is {fields.get(key)!r}, expected {header.get(key)!r}"
        )
    rows = _checked_rows(path, lines, fmt, check)
    if not rows:
        raise CorpusSpecError(
            f"{path}: no {fmt.noun} after the header line{'s' if fmt.column_line else ''}"
        )
    return fields, rows


def load_patterns(path: str | Path | None = None) -> PatternInventory:
    """The template inventory in the ``PATTERNS`` file ``path``, or in the
    packaged ``data/patterns.tsv``; its version is the magic's last word.

    Raises:
        CorpusSpecError: ``read_table`` rejects the file, or a template
            fails ``morphology.bad_template`` or repeats an earlier row's;
            naming the file, and the line if any.
    """
    path = Path(__file__).with_name("data") / "patterns.tsv" if path is None else Path(path)
    # each template -> the id of the row that holds it first
    first_id: dict[str, str] = {}

    def check(fields: list[str]) -> str | None:
        pattern_id, template = fields
        first = first_id.setdefault(template, pattern_id)
        if first != pattern_id:
            return f"template {template!r} repeats pattern {first}"
        return bad_template(template)

    _, rows = read_table(path, PATTERNS, check=check)
    version = PATTERNS.magic.split()[-1]
    return PatternInventory(version, tuple(DerivationPattern(*row) for row in rows))


def _documents(
    path: Path, lines: list[str]
) -> tuple[list[Document], dict[str, str], dict[str, str]]:
    """The manifest rows, plus the distinct roots and peer ids among them.

    Each row's root and peer id is the one string of its value that the
    returned maps hold, not a copy per row: each repeats across a root's or
    a peer's rows.
    """
    new = tuple.__new__
    roots: dict[str, str] = {}
    peers: dict[str, str] = {}
    share_root, share_peer = roots.setdefault, peers.setdefault
    try:
        documents = [
            # tuple.__new__ builds the NamedTuple without its Python-level __new__ frame
            new(Document, (doc_id, word, share_root(root, root), share_peer(peer, peer)))
            for line in lines[1:]
            if line.strip()
            # binds the row's fields; a wrong field count raises ValueError
            for doc_id, word, root, peer in (line.split("\t"),)
        ]
    except ValueError:
        _checked_rows(path, lines, MANIFEST)
        raise
    return documents, roots, peers


def _bad_document(fields: list[str], peer_ids: tuple[str, ...]) -> str | None:
    """Why a ``manifest.tsv`` row cannot be loaded: whitespace in its doc id
    or word, a root ``derive`` would reject, or a peer id the header does not name."""
    for name, value in zip(("doc id", "word"), fields):
        if value.split() != [value]:
            return f"{name} {value!r} holds whitespace"
    root, peer_id = fields[2:]
    if not is_root(root):
        return f"root {root!r} is not a normalized Arabic word of 3 or 4 letters"
    if peer_id not in peer_ids:
        return f"peer id {peer_id!r} is not one of {peer_ids[0]}..{peer_ids[-1]}"
    return None


def _second_root(fields: list[str], root_of: dict[str, str]) -> str | None:
    """Why a ``manifest.tsv`` row cannot be filed: ``root_of``, the root of
    each word on the rows before it, files its word under another root."""
    _, word, root, _ = fields
    first = root_of.setdefault(word, root)
    return None if first == root else f"word {word!r} has two roots: {first!r} and {root!r}"


def _bad_query(fields: list[str], roots: dict[str, str]) -> str | None:
    """Why a ``queries.tsv`` row cannot be run: a word ``Query.parse``
    rejects (not one token, not Arabic, or nothing left after
    normalization), or a root no document is filed under."""
    from .search import Query  # search imports index, which imports this module

    query_id, word, root = fields
    try:
        Query.parse(query_id, word)
    except (ValueError, EmptyAfterNormalization):
        return f"query word {word!r} is not one Arabic word"
    return None if root in roots else f"query root {root!r} has no documents"


@gc_paused
def load_manifest(corpus_dir: str | Path) -> CorpusManifest:
    """Reload a generated corpus from its manifest and query files.

    Raises:
        CorpusSpecError: a file is empty or does not start with its
            header line, the manifest header lacks a field, holds a
            non-integer count or counts that ``CorpusSpec.validate`` rejects,
            the query file's header fields differ from the manifest's,
            a row has the wrong field count or an empty field, a doc id or
            a query id repeats, the manifest holds no documents or a number
            other than ``roots x words_per_root``, a doc id or word holds
            whitespace, a root is not a normalized Arabic word of 3 or 4
            letters, a peer id is not one of the header's ``peer-1..peer-N``,
            ``queries.tsv`` holds no queries, a query word is not one Arabic
            word, a query root has no documents, or a word is filed under
            two roots (found as the lexicon is built, before the return);
            the message names the file, and the line if any.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / MANIFEST_NAME
    manifest_text = manifest_path.read_text("utf-8")
    manifest_lines = manifest_text.splitlines()
    fields = _parse_header(manifest_lines, manifest_path, MANIFEST)
    spec = CorpusSpec(**{
        name: _header_field(fields, key, manifest_path, int) for key, name in _SPEC_HEADER.items()
    })
    patterns_version = _header_field(fields, "patterns", manifest_path)
    try:
        spec.validate()
    except CorpusSpecError as err:
        raise CorpusSpecError(f"{manifest_path}:1: {err}") from None
    documents, roots, peers = _documents(manifest_path, manifest_lines)
    if not documents:
        raise CorpusSpecError(f"{manifest_path}: no documents after the header line")
    known = spec.peer_ids()
    doc_ids = {doc.doc_id for doc in documents}
    # an empty doc id or peer id shows in these sets, an empty word or root
    # as two adjacent tabs, whitespace in a field after the header line, and
    # a root derive would reject among the distinct roots: no pass over the rows
    spaced = any(manifest_text.find(c, len(manifest_lines[0])) >= 0 for c in _FIELD_SPACES)
    unsound = "" in doc_ids or "\t\t" in manifest_text or not peers.keys() <= set(known)
    if unsound or spaced or not all(map(is_root, roots)) or len(doc_ids) != len(documents):
        _checked_rows(
            manifest_path, manifest_lines, MANIFEST, lambda row: _bad_document(row, known)
        )
    if len(documents) != spec.total_documents:
        raise CorpusSpecError(
            f"{manifest_path}: {len(documents)} documents, header says"
            f" roots={spec.root_count} x words_per_root={spec.words_per_root}"
            f" = {spec.total_documents}"
        )
    _, rows = read_table(
        corpus_dir / QUERIES_NAME, QUERIES, fields, lambda row: _bad_query(row, roots)
    )
    manifest = CorpusManifest(
        spec=spec,
        documents=tuple(documents),
        roots=tuple(sorted(roots)),
        queries=tuple(QueryEntry(*row) for row in rows),
        patterns_version=patterns_version,
    )
    # the text is freed before the lexicon is built, and read again only to name a bad line
    del manifest_text, manifest_lines
    try:
        manifest.lexicon
    except ValueError:
        seen: dict[str, str] = {}
        lines = manifest_path.read_text("utf-8").splitlines()
        _checked_rows(manifest_path, lines, MANIFEST, lambda row: _second_root(row, seen))
        raise
    return manifest


def relevant_set(word: str, manifest: CorpusManifest) -> frozenset[str]:
    """All doc_ids sharing the root ``extract_root`` gives ``word``: the lexicon
    path acceptance criterion 5 checks. ``run-eval`` scores on queries.tsv roots.

    Raises:
        UnknownRoot: the word resolves to no root at all.
    """
    root = extract_root(normalize(word), manifest.lexicon)
    return frozenset(manifest.docs_by_root.get(root, ()))


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

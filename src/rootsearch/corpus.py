"""Deterministic corpus, query-set and peer-assignment generation.

The generated collection is fully reproducible from (spec, seed, pattern
file): root selection, per-root template order, query word choice and the
collision fixups below are all drawn from one seeded generator.

Layout on disk, under the chosen corpus directory:

    manifest.tsv            one ``doc_id TAB word TAB root TAB peer_id`` per
                            document, after a ``#`` header carrying the
                            generation parameters and seed
    queries.tsv             one ``query_id TAB word TAB root`` per query

Peer assignment is structural, not random: the selected roots are sorted
canonically and dealt to peers in contiguous blocks of ``roots_per_peer``;
``p2p.build_overlay`` puts consecutive peers under one super-peer.

Every TSV file rootsearch writes (these two, and ``evaluation``'s results
and summary) has one format, a ``TsvFormat``: a header line (magic, then
``key=value`` fields), an optional column line, and fixed-width rows whose
first field is an id. ``write_tsv`` writes each through a sibling ``.part``
file renamed into place. On load, "\n", "\r\n" and "\r" end a line and no
other separator does, so a line number is the one an editor shows and a
U+2028 is a character of a field. One walk over the rows (``_checked_rows``)
splits and checks them, naming the file and line of the first bad one;
``read_table`` uses it alone. Both corpus files carry one header made from
the spec, and a query file with another header is rejected.

``CorpusManifest`` holds a manifest as four columns (doc ids, words, roots
and peer ids) that ``generate_corpus`` and ``load_manifest`` fill; its
``documents`` zips them into ``Document`` rows for each reader that asks.
``postings`` is the one grouping: the lexicon's words per root and the
manifest's ``docs_by_root``, ``docs_by_word`` and ``peers_of_root`` are one
pass each over two columns, built on first use. ``load_manifest`` splits
the rows a chunk at a time, sharing one string per distinct root and peer
id, and checks every row rule on the whole file at once, the lexicon built
with them; only a file that fails, or whose row count is off, is walked, once,
with the one row rule ``_bad_document``, so the first bad line is named.

``generate_corpus`` prepares each template once per run, derives each root's
words in one ``morphology.derivations`` pass, and writes ``manifest.tsv``
last, after ``queries.tsv``, so a run that fails leaves no loadable manifest
in a fresh directory.
``gc_paused`` keeps the cyclic garbage collector off in the three builds that
make one tracked object per row: ``load_manifest``, the manifest's
``documents`` and ``index.build_index``; in a CLI process ``cli.entry`` keeps
it off throughout.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
from collections import Counter
from functools import cached_property, wraps
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from .errors import CorpusSpecError
from .morphology import DerivationPattern, PatternInventory, RootLexicon, bad_template
from .morphology import derivations, extract_root, is_root, prepare
from .normalize import is_normalized, normalize

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

# rows ``_columns`` splits at once, not a whole file's copy of every root and peer id
_CHUNK_ROWS = 4096

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
Columns = tuple[Sequence[str], Sequence[str], Sequence[str], Sequence[str]]
# a row's fields -> why the row is bad, or None
RowCheck = Callable[[list[str]], str | None]

_Build = TypeVar("_Build", bound=Callable)


def gc_paused(build: _Build) -> _Build:
    """Run ``build`` with the cyclic garbage collector off, then restore its
    earlier state, also when ``build`` raises; a call made while the
    collector is off leaves it off. Each build it wraps makes one tracked
    object per row and no reference cycle, so the collections it skips over a
    100,000-document build would walk the rows and free nothing; rootsearch
    is single-threaded. In a CLI process ``cli.entry`` keeps the collector off
    throughout, so the pause matters only to in-process callers (``cli.main``,
    tests, benchmarks)."""

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


def postings(keys: Iterable[str], ids: Iterable[str]) -> dict[str, DocIds]:
    """Each of ``keys`` -> the sorted, duplicate-free ``ids`` read in step
    with it; the one grouping, of doc ids by word or root, and of words or
    peer ids by root. A key's first id is a 1-tuple and only its second
    makes a list, so a generated corpus's one-id word keys leave no list."""
    grouped: dict = {}
    for k, doc_id in zip(keys, ids):
        held = grouped.get(k)
        if held is None:
            grouped[k] = (doc_id,)
        elif type(held) is tuple:
            grouped[k] = [held[0], doc_id]
        else:
            held.append(doc_id)
    for k, held in grouped.items():
        if type(held) is list:
            grouped[k] = tuple(dict.fromkeys(sorted(held)))
    return grouped


class CorpusManifest:
    """Ground truth for a generated corpus: four columns, each document's id,
    word, root and peer id in manifest order, which share one string per root and peer."""

    def __init__(
        self,
        spec: CorpusSpec,
        columns: Columns,
        roots: tuple[str, ...],
        queries: tuple[QueryEntry, ...],
        patterns_version: str,
    ) -> None:
        self.spec = spec
        self.doc_ids, self.doc_words, self.doc_roots, self.doc_peers = columns
        self.roots = roots
        self.queries = queries
        self.patterns_version = patterns_version

    @property
    @gc_paused
    def documents(self) -> tuple[Document, ...]:
        """The columns zipped into rows, anew for each reader, which frees them."""
        columns = zip(self.doc_ids, self.doc_words, self.doc_roots, self.doc_peers)
        return tuple(map(tuple.__new__, itertools.repeat(Document), columns))

    @cached_property
    def lexicon(self) -> RootLexicon:
        return RootLexicon(postings(self.doc_roots, self.doc_words))

    @cached_property
    def docs_by_root(self) -> dict[str, DocIds]:
        return postings(self.doc_roots, self.doc_ids)

    @cached_property
    def docs_by_word(self) -> dict[str, DocIds]:
        return postings(self.doc_words, self.doc_ids)

    @cached_property
    def peers_of_root(self) -> dict[str, frozenset[str]]:
        grouped = postings(self.doc_roots, self.doc_peers)
        return {root: frozenset(peers) for root, peers in grouped.items()}


def _select_roots(spec: CorpusSpec, pool: tuple[str, ...], rng: random.Random) -> list[str]:
    if spec.root_count > len(pool):
        raise CorpusSpecError(
            f"root inventory has {len(pool)} roots, spec needs {spec.root_count}"
        )
    anchors = [r for r in ANCHOR_ROOTS if r in pool][: spec.root_count]
    others = [r for r in pool if r not in anchors]
    return anchors + rng.sample(others, spec.root_count - len(anchors))


def _disambiguate(word: str, used: set[str]) -> str:
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
    """Generate a corpus: ``queries.tsv``, then ``manifest.tsv``, under
    ``out_dir``, both under one header line made from the spec.

    Raises:
        CorpusSpecError: a spec invariant is violated, the packaged pattern
            file fails ``load_patterns``, more words per root were requested
            than the template inventory can supply, the root pool is shorter
            than ``root_count``, or a template pair produced the same surface
            form for one root (a broken template set).
        ValueError: ``derive``'s, for a pooled root or a drawn template.
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
    peer_ids = spec.peer_ids()

    query_width = max(3, len(str(spec.root_count - 1)))
    doc_words, doc_roots, doc_peers = [], [], []
    queries: list[QueryEntry] = []
    used: set[str] = set()
    # rng.sample draws by position, so a list of prepared patterns gets the same draws
    prepared = list(map(prepare, inventory.patterns))
    for root_index, root in enumerate(roots):
        chosen = rng.sample(prepared, spec.words_per_root)
        words, raw_surfaces = [], set()
        for (pattern, _, _), word in zip(chosen, derivations(root, chosen)):
            # two templates yielding one surface for one root is a broken
            # template set; a clash with an already-claimed word (another
            # root, or a disambiguated sibling) just gets a clitic appended
            if word in raw_surfaces:
                raise CorpusSpecError(
                    f"root {root}: pattern {pattern.pattern_id} repeats "
                    f"an earlier surface form {word!r}"
                )
            raw_surfaces.add(word)
            if word in used:
                word = _disambiguate(word, used)
            used.add(word)
            words.append(word)
        doc_words += words
        doc_roots += [root] * len(words)
        doc_peers += [peer_ids[root_index // spec.roots_per_peer]] * len(words)
        query_word = words[rng.randrange(len(words))]
        queries.append(QueryEntry(f"q{root_index:0{query_width}d}", query_word, root))

    doc_width = max(5, len(str(spec.total_documents - 1)))
    doc_ids = list(map(f"d%0{doc_width}d".__mod__, range(len(doc_words))))
    manifest = CorpusManifest(
        spec=spec,
        columns=(doc_ids, doc_words, doc_roots, doc_peers),
        roots=tuple(roots),
        queries=tuple(queries),
        patterns_version=inventory.version,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {key: getattr(spec, name) for key, name in _SPEC_HEADER.items()}
    header["patterns"] = inventory.version
    write_tsv(out_dir / QUERIES_NAME, QUERIES, header,
              (f"{q.query_id}\t{q.word}\t{q.root}" for q in queries))
    write_tsv(out_dir / MANIFEST_NAME, MANIFEST, header,
              map("\t".join, zip(doc_ids, doc_words, doc_roots, doc_peers)))
    return manifest


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
    has one, its column line, and each field is a ``key=value`` of its own key."""
    if lines == [""]:
        raise CorpusSpecError(f"{path}:1: empty file, expected header {fmt.magic!r}")
    magic, *parts = lines[0].split("\t")
    if magic != fmt.magic:
        raise CorpusSpecError(f"{path}:1: expected header {fmt.magic!r}, got {lines[0][:40]!r}")
    columns = "\t".join(fmt.columns)
    if fmt.column_line and lines[1:2] != [columns]:
        got = lines[1][:40] if len(lines) > 1 else ""
        raise CorpusSpecError(f"{path}:2: expected column line {columns!r}, got {got!r}")
    fields: dict[str, str] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not key or not eq or key in fields:
            problem = f"{key!r} repeats" if key and eq else f"{part!r} is not key=value"
            raise CorpusSpecError(f"{path}:1: header field {problem}")
        fields[key] = value
    return fields


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


def _read_text(path: Path) -> str:
    """The text of ``path``, each line end ("\n", "\r\n" or "\r") read as
    "\n"; a byte that is not UTF-8 raises CorpusSpecError naming the file and
    the byte's line."""
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as err:
        # the decoder had the whole file, so err.start is a file offset
        before = err.object[: err.start].replace(b"\r\n", b"\n")
        lineno = before.count(b"\n") + before.count(b"\r") + 1
        raise CorpusSpecError(
            f"{path}:{lineno}: not UTF-8: byte {err.object[err.start]:#04x} ({err.reason})"
        ) from None


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
            and column line, a header field repeats or is not ``key=value``,
            its header fields are not ``header`` (when given), a row's field
            count is not ``fmt``'s, a row holds an empty field, a row's first
            field repeats, ``check(fields)`` returns a message for a row, no
            row follows the header, or a byte is not UTF-8; naming the file,
            and the line if any.
    """
    lines = _read_text(path).split("\n")
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


def _columns(lines: list[str]) -> tuple[Columns, dict[str, str]] | None:
    """The manifest's columns and its distinct roots, one string each that the
    rows share, as they do each peer id; None if a row is not 4 fields. Chunks
    of rows are joined with "\t\n" and split at the tabs: a row of other than
    4 fields moves the "\n" that starts the next row's first cell out of the
    doc-id column, which then holds fewer than one "\n" per row after the first."""
    doc_ids, doc_words, doc_roots, doc_peers = columns = ([], [], [], [])
    roots: dict[str, str] = {}
    peers: dict[str, str] = {}
    rows = list(itertools.filterfalse(str.isspace, filter(None, itertools.islice(lines, 1, None))))
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start:start + _CHUNK_ROWS]
        cells = "\t\n".join(chunk).split("\t")
        ids = "".join(cells[0::4]).split("\n")
        if len(ids) != len(chunk) or len(cells) != 4 * len(chunk):
            return None
        doc_ids += ids
        doc_words += cells[1::4]
        doc_roots += map(roots.setdefault, cells[2::4], cells[2::4])
        doc_peers += map(peers.setdefault, cells[3::4], cells[3::4])
    return columns, roots


def _spaced(names: tuple[str, str], fields: list[str]) -> str | None:
    """Why a row cannot be loaded: its id or word, named ``names``, holds whitespace."""
    spaced = [f"{n} {v!r} holds whitespace" for n, v in zip(names, fields) if v.split() != [v]]
    return spaced[0] if spaced else None


def _bad_document(
    fields: list[str], peer_ids: tuple[str, ...], share: int, root_of: dict[str, str], held: Counter
) -> str | None:
    """Why a ``manifest.tsv`` row cannot be loaded: a root ``derive`` would
    reject, a peer id the header does not name, whitespace in its doc id or
    word, a word ``normalize`` would change, its word under another root in
    ``root_of``, or its peer at its ``share`` in ``held``; the rows before it
    fill both."""
    _, word, root, peer_id = fields
    if not is_root(root):
        return f"root {root!r} is not a normalized Arabic word of 3 or 4 letters"
    if peer_id not in peer_ids:
        return f"peer id {peer_id!r} is not one of {peer_ids[0]}..{peer_ids[-1]}"
    if spaced := _spaced(("doc id", "word"), fields):
        return spaced
    if not is_normalized(word):
        return f"word {word!r} is not a normalized Arabic word"
    first = root_of.setdefault(word, root)
    if first != root:
        return f"word {word!r} has two roots: {first!r} and {root!r}"
    held[peer_id] += 1
    if held[peer_id] > share:
        return f"peer {peer_id} holds more than its {share} documents"
    return None


def _bad_query(fields: list[str], roots: dict[str, str]) -> str | None:
    """Why a ``queries.tsv`` row cannot be run: a word ``Query.parse`` rejects
    (not one token, not Arabic, or nothing left after normalization), a root
    no document is filed under, or whitespace in its query id or word."""
    from .search import Query  # search imports index, which imports this module

    query_id, word, root = fields
    try:
        Query.parse(query_id, word)
    except ValueError:
        return f"query word {word!r} is not one Arabic word"
    if root not in roots:
        return f"query root {root!r} has no documents"
    return _spaced(("query id", "query word"), fields)


def _sound(manifest: CorpusManifest, peer_ids: tuple[str, ...], share: int) -> bool:
    """Whether every row passes ``_checked_rows`` and ``_bad_document``, by
    scans of columns and sets (whitespace in a doc id splits its column's text;
    the word column's text is normalized only if each word is; an empty or
    spaced root or peer id is no root or known peer; with the count right, a
    peer past its share leaves another under it), then as the lexicon is built,
    which raises on a word filed under two roots."""
    doc_ids, words = manifest.doc_ids, manifest.doc_words
    ids = set(doc_ids)
    ids_text, words_text = map("".join, (doc_ids, words))
    if (
        "" in ids or len(ids) != len(doc_ids) or "" in words
        or ids_text.split() != [ids_text] or not is_normalized(words_text)
        or not all(map(is_root, manifest.roots))
        or Counter(manifest.doc_peers) != Counter(dict.fromkeys(peer_ids, share))
    ):
        return False
    try:
        manifest.lexicon
    except ValueError:
        return False
    return True


@gc_paused
def load_manifest(corpus_dir: str | Path) -> CorpusManifest:
    """Reload a generated corpus from its manifest and query files.

    Every row rule is checked on the whole manifest at once (``_sound``); only
    a manifest that fails, or whose document count is off, is read again and
    walked with the one row rule, ``_bad_document``, which names its first bad
    line, whatever the fault. The count is named only when every row passes.

    Raises:
        CorpusSpecError: a file is not UTF-8, is empty or does not start with
            its header line, a header field repeats or is not ``key=value``,
            the manifest header lacks a field, holds a non-integer count or
            counts that ``CorpusSpec.validate`` rejects, the manifest holds no
            documents or, with every row passing, a number other than
            ``roots x words_per_root``, a row has the wrong field count or an
            empty field, a doc id or a query id repeats, a doc id or word
            holds whitespace, a word is not normalized, a root is not a
            normalized Arabic word of 3 or 4 letters, a peer id is not one of
            the header's ``peer-1..peer-N``, a word is filed under two roots,
            a peer holds more than ``roots_per_peer x words_per_root``
            documents, the query file's header fields differ from the
            manifest's, ``queries.tsv`` holds no queries, a query word is not
            one Arabic word, a query root has no documents, or a query id or
            word holds whitespace; the message names the file, and the line if
            any.
    """
    corpus_dir = Path(corpus_dir)
    path = corpus_dir / MANIFEST_NAME
    lines = _read_text(path).split("\n")
    fields = _parse_header(lines, path, MANIFEST)
    spec = CorpusSpec(**{
        name: _header_field(fields, key, path, int) for key, name in _SPEC_HEADER.items()
    })
    patterns_version = _header_field(fields, "patterns", path)
    try:
        spec.validate()
    except CorpusSpecError as err:
        raise CorpusSpecError(f"{path}:1: {err}") from None
    parsed = _columns(lines)
    del lines  # freed before the lexicon is built, and read again only to name a bad line
    if parsed:
        columns, roots = parsed
        if not columns[0]:
            raise CorpusSpecError(f"{path}: no documents after the header line")
        manifest = CorpusManifest(spec, columns, tuple(sorted(roots)), (), patterns_version)
    counted = parsed and len(columns[0]) == spec.total_documents
    known, share = spec.peer_ids(), spec.roots_per_peer * spec.words_per_root
    if not (counted and _sound(manifest, known, share)):
        root_of: dict[str, str] = {}
        held: Counter = Counter()
        # raises, naming the first bad line, if a row breaks a rule
        _checked_rows(path, _read_text(path).split("\n"), MANIFEST,
                      lambda row: _bad_document(row, known, share, root_of, held))
        if not counted:
            raise CorpusSpecError(
                f"{path}: {len(columns[0])} documents, header says roots={spec.root_count}"
                f" x words_per_root={spec.words_per_root} = {spec.total_documents}"
            )
    _, rows = read_table(
        corpus_dir / QUERIES_NAME, QUERIES, fields, lambda row: _bad_query(row, roots)
    )
    manifest.queries = tuple(QueryEntry(*row) for row in rows)
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

"""Command-line interface tying generation, indexing, querying and evaluation
into reproducible runs.

With no flags, ``rootsearch gen-corpus && rootsearch run-eval`` regenerates
the default 10,000-document corpus and evaluates all four engines over its
100 queries, writing results/*.tsv.

Exit codes: 0 success, 1 validation error, 2 infrastructure error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import (
    CorpusSpec,
    generate_corpus,
    load_manifest,
    manifest_digest,
    read_table,
)
from .errors import CorpusSpecError, RootSearchError
from .evaluation import RESULTS, SUMMARY, build_engines, run_evaluation, write_report
from .p2p import format_message_log
from .search import BASELINE, ENGINES, EXPANDED, P2P_ADVANCED, Query

DEFAULT_CORPUS_DIR = "corpus"
DEFAULT_RESULTS_DIR = "results"

# gen-corpus's defaults, and the peer counts it shrinks when none are given
_DEFAULTS = CorpusSpec()

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFRASTRUCTURE = 2


def _resolve_spec(args: argparse.Namespace) -> CorpusSpec:
    # When peer counts are not given explicitly, shrink the defaults to the
    # largest value that divides evenly, so scaled-down corpora work without
    # extra flags. Explicit values are validated as-is.
    peers = args.peers
    if peers is None:
        peers = max(k for k in range(1, _DEFAULTS.peer_count + 1) if args.roots % k == 0)
    elif peers < 1:
        # checked here: roots_per_peer below divides by it
        raise CorpusSpecError(f"--peers must be at least 1, got {peers}")
    super_peers = args.super_peers
    if super_peers is None:
        super_peers = max(m for m in range(1, _DEFAULTS.superpeer_count + 1) if peers % m == 0)
    return CorpusSpec(
        root_count=args.roots,
        words_per_root=args.words_per_root,
        peer_count=peers,
        superpeer_count=super_peers,
        roots_per_peer=max(1, args.roots // peers),
        seed=args.seed,
    )


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    manifest = generate_corpus(spec, args.out)
    print(
        f"generated {len(manifest.documents)} documents"
        f" ({len(manifest.roots)} roots x {spec.words_per_root} words)"
        f" across {spec.peer_count} peers -> {args.out}"
    )
    print(f"seed: {spec.seed}")
    print(f"corpus digest: {manifest_digest(args.out)}")
    return EXIT_OK


def cmd_query(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.corpus)
    query = Query.parse("cli", args.word)
    # built, and so validated, before the first line is printed
    (engine,) = build_engines(manifest, [args.engine], origin=args.origin)
    print(f"query: {args.word} -> {query.normalized}")
    outcome = engine.run(query)
    result = outcome.result

    if result.degraded:
        print(
            f"warning: no root resolved for {query.normalized!r};"
            " degraded to exact search",
            file=sys.stderr,
        )
    elif args.engine in (EXPANDED, P2P_ADVANCED) and not result.expanded_terms:
        print(
            f"warning: the root of {query.normalized!r} has no words in the corpus",
            file=sys.stderr,
        )
    if result.expanded_terms and not result.degraded:
        print(f"expanded terms ({len(result.expanded_terms)}): "
              + " ".join(result.expanded_terms))
    print(f"found ({len(result.found)}):")
    for doc_id in result.found:
        print(doc_id)
    if outcome.peers_contacted is not None:
        print(f"peers contacted: {outcome.peers_contacted}")
        print("messages:")
        print(format_message_log(outcome.messages), end="")
    return EXIT_OK


def cmd_run_eval(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.corpus)
    digest = manifest_digest(args.corpus)
    engines = build_engines(manifest, args.engines)
    report = run_evaluation(manifest, engines, corpus_digest=digest)
    summary = write_report(report, args.out)
    print(f"corpus digest: {digest}")
    print("\n".join(summary))
    print(f"results written to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    results_dir = Path(args.results)
    meta, summary = read_table(results_dir / "summary.tsv", SUMMARY)
    engines = [row[0] for row in summary]
    # query id -> its table row: the id, the word, then "P TAB R" per engine
    table: dict[str, list[str]] = {}
    for column, engine in enumerate(engines, 2):
        # written by the same run as the summary: its header is the summary's
        # plus the engine its file is named after
        _, rows = read_table(results_dir / f"{engine}.tsv", RESULTS, {"engine": engine, **meta})
        for query_id, word, _found, _relevant, prec, rec, _peers in rows:
            cells = table.setdefault(query_id, [query_id, word, *["-\t-"] * len(engines)])
            cells[column] = f"{prec}\t{rec}"

    print("\t".join(["query_id", "word", *(f"{e} P\t{e} R" for e in engines)]))
    for cells in table.values():
        print("\t".join(cells))
    print("\t".join(["ALL", "-", *("\t".join(row[2:4]) for row in summary)]))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsearch",
        description="Arabic retrieval testbed: exact vs root-expanded search, "
        "centralized and over a simulated super-peer overlay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-corpus", help="generate the document corpus")
    gen.add_argument("--out", default=DEFAULT_CORPUS_DIR, help="corpus directory")
    gen.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    gen.add_argument("--roots", type=int, default=_DEFAULTS.root_count)
    gen.add_argument("--words-per-root", type=int, default=_DEFAULTS.words_per_root)
    gen.add_argument("--peers", type=int, default=None)
    gen.add_argument("--super-peers", type=int, default=None)
    gen.set_defaults(handler=cmd_gen_corpus)

    query = sub.add_parser("query", help="run one query word")
    query.add_argument("word")
    query.add_argument("--corpus", default=DEFAULT_CORPUS_DIR)
    query.add_argument("--engine", choices=ENGINES, default=BASELINE)
    query.add_argument("--origin", default="peer-1", help="originating peer (p2p engines)")
    query.set_defaults(handler=cmd_query)

    run = sub.add_parser("run-eval", help="evaluate engines over all queries")
    run.add_argument("--corpus", default=DEFAULT_CORPUS_DIR)
    run.add_argument("--out", default=DEFAULT_RESULTS_DIR)
    run.add_argument("--engines", nargs="+", choices=ENGINES, default=list(ENGINES))
    run.set_defaults(handler=cmd_run_eval)

    report = sub.add_parser("report", help="render saved results side by side")
    report.add_argument("--results", default=DEFAULT_RESULTS_DIR)
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (RootSearchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE


if __name__ == "__main__":
    sys.exit(main())

"""Exact work counts of small seeded runs of the benchmark's count pass.

Run from the checkout root: ``python3 -m pytest perfbench/test_counts.py``.
The paper-eval case is exactly what ``perfbench/run.py --trace 1`` reports as
``counts`` for ``--workload paper-eval --seed 2011``. The query-vocab case
runs on a 4,000-document synthetic corpus instead of 100,000 documents; its
per-query counts are the same as at full size.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rootsearch.corpus import CorpusSpec  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def overlay_counts(mode: str, ops: int, forwards: int, payload_keys: int) -> dict[str, int]:
    """Counts of one overlay mode when every forward is answered with doc ids."""
    return {
        f"p2p.{mode}.messages.QUERY_UP": 2 * ops,
        f"p2p.{mode}.messages.QUERY_FORWARD": forwards,
        f"p2p.{mode}.messages.RESULTS_BACK": 2 * ops + forwards,
        f"p2p.{mode}.forwards": forwards,
        f"p2p.{mode}.useful_forwards": forwards,
        f"p2p.{mode}.peers_contacted": forwards,
        f"p2p.{mode}.payload_keys": payload_keys,
    }


def index_counts(docs: int) -> dict[str, int]:
    # ADVANCED shares one stored posting set per root, so both modes store
    # one doc id per document
    return {
        f"index.{mode}.{kind}": docs
        for mode in ("simple", "advanced")
        for kind in ("keys", "postings")
    }


@pytest.fixture(scope="module")
def work():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-counts-", dir=base))
    yield path
    shutil.rmtree(path)


def test_paper_eval_noisy_counts(work):
    run = workloads.Run("paper-eval", 2011, 0, True, ROOT)
    run.generate(CorpusSpec(), work / "paper")
    env = run.build_env(work / "paper")
    ops = run.make_ops(workloads.Truth.read(work / "paper"))
    assert dict(workloads.count_pass(env, ops[: workloads.COUNT_OPS])) == {
        "ops": 1000,
        "normalize.changed": 848,
        "morphology.lexicon_hit": 49,
        "morphology.root_ok": 971,
        "morphology.root_wrong": 26,
        "morphology.degraded": 3,
        "search.expanded_terms": 97103,
        **overlay_counts("simple", 1000, 49, 2169),
        **overlay_counts("advanced", 1000, 971, 533306),
        **index_counts(10000),
    }


def test_query_vocab_counts(work):
    run = workloads.Run("query-vocab", 1, 0, True, ROOT)
    spec = CorpusSpec(root_count=40, roots_per_peer=10, seed=1)
    run.generate(spec, work / "vocab", inputs.synthetic_root_pool(40, "1:roots"))
    env = run.build_env(work / "vocab")
    ops = run.make_ops(workloads.Truth.read(work / "vocab"))
    assert dict(workloads.count_pass(env, ops[: workloads.COUNT_OPS])) == {
        "ops": 1000,
        "normalize.changed": 0,
        "morphology.lexicon_hit": 1000,
        "morphology.root_ok": 1000,
        "search.expanded_terms": 100000,
        **overlay_counts("simple", 1000, 1000, 5525),
        **overlay_counts("advanced", 1000, 1000, 552500),
        **index_counts(4000),
    }


def test_synthetic_pool_is_seeded_and_collision_free():
    pool = inputs.synthetic_root_pool(1000, "7:roots")
    assert pool == inputs.synthetic_root_pool(1000, "7:roots")
    assert len(set(pool)) == 1000
    assert all(len(set(root)) > 1 and set(root) <= set(inputs.CONSONANTS) for root in pool)

"""rootsearch: Arabic retrieval testbed.

Compares four configurations over a deterministically generated
single-word-document corpus: exact surface search, root-expanded search,
and peer-to-peer search with simple or root-aware indexation.
"""

__version__ = "0.1.0"

from .corpus import CorpusSpec, generate_corpus, load_manifest, relevant_set
from .index import IndexMode, build_index
from .morphology import RootLexicon, derive, extract_root, load_patterns
from .normalize import normalize
from .p2p import build_overlay, p2p_search
from .search import Query, search_exact, search_expanded

__all__ = [
    "CorpusSpec",
    "IndexMode",
    "Query",
    "RootLexicon",
    "build_index",
    "build_overlay",
    "derive",
    "extract_root",
    "generate_corpus",
    "load_manifest",
    "load_patterns",
    "normalize",
    "p2p_search",
    "relevant_set",
    "search_exact",
    "search_expanded",
]

"""rootsearch: Arabic retrieval testbed.

Compares four configurations over a deterministically generated
single-word-document corpus: exact surface search, root-expanded search,
and peer-to-peer search with simple or root-aware indexation.
"""

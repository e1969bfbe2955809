"""Desk-scale hybrid search: tf-idf lexical retrieval, dense embeddings from a
from-scratch transformer encoder, score-fusion hybrid ranking, dataset split
tooling, and classification metrics.  The package itself defines no names:
import its modules, as in ``from desksearch import searcher``."""

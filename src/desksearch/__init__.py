"""Desk-scale hybrid search: tf-idf lexical retrieval, dense embeddings from a
from-scratch transformer encoder, score-fusion hybrid ranking, dataset split
tooling, and classification metrics."""

from .dataset import (
    DatasetBundle,
    Review,
    SplitSpec,
    balanced_resample,
    class_distribution,
    load_reviews,
    split,
)
from .encoder import (
    DenseEmbedding,
    EncoderConfig,
    EncoderWeights,
    cross_entropy,
    encode,
    init_weights,
    load_weights,
    mse,
    positional_encoding,
    rms,
    rmsnorm,
    save_weights,
    self_attention,
    swiglu_ffn,
)
from .lexical_index import (
    InvertedIndex,
    SearchHit,
    build_index,
    load_index,
    save_index,
    search_lexical,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    accuracy,
    compute_report,
    confusion_counts,
    confusion_to_csv,
    f1,
    precision,
    recall,
    row_normalize,
    weighted_f1,
)
from .text_pipeline import (
    SparseVector,
    TokenizerConfig,
    Vocabulary,
    build_vocabulary,
    count_vectorize,
    idf,
    tfidf_vectorize,
    tokenize,
)
from .vector_index import (
    HybridConfig,
    VectorIndex,
    load_vectors,
    minmax_normalize,
    save_vectors,
    search_hybrid,
)

__version__ = "0.1.0"

"""turlex: noisy Turkish text normalization and n-gram lexicon building.

The package corrects ascii-typed, stretched and abbreviated Turkish words
against a frequency dictionary and builds rating-partitioned 1/2/3-gram
term tables from rated review corpora.
"""

from .corrector import (
    DEFAULT_TOGGLE_PAIRS,
    CorrectionResult,
    CorrectorConfig,
    Method,
    candidate_count,
    correct_word,
    count_ambiguous,
    diacritic_correct,
    generate_candidates,
)
from .errors import CandidateExplosionError, ParseError, TurlexError
from .ngrams import NgramKey, NgramTable, extract_ngrams, verify_partition
from .pipeline import (
    JobConfig,
    PipelineReport,
    bench_compare,
    correct_text,
    ingest_jsonl,
    round_score,
    run_pipeline,
)
from .resources import (
    Dictionary,
    LexiconResources,
    Stemmer,
    SuffixStemmer,
    dump_dictionary,
    load_abbreviations,
    load_dictionary,
    load_stopwords,
    load_suffixes,
)
from .similarity import (
    RankedMatch,
    best_matches,
    gestalt_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)
from .tokenizer import (
    RawReview,
    Token,
    collapse_repeats,
    remove_stopwords,
    strip_noise,
    tokenize,
    turkish_lowercase,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateExplosionError",
    "CorrectionResult",
    "CorrectorConfig",
    "DEFAULT_TOGGLE_PAIRS",
    "Dictionary",
    "JobConfig",
    "LexiconResources",
    "Method",
    "NgramKey",
    "NgramTable",
    "ParseError",
    "PipelineReport",
    "RankedMatch",
    "RawReview",
    "Stemmer",
    "SuffixStemmer",
    "Token",
    "TurlexError",
    "bench_compare",
    "best_matches",
    "candidate_count",
    "collapse_repeats",
    "correct_text",
    "correct_word",
    "count_ambiguous",
    "diacritic_correct",
    "dump_dictionary",
    "extract_ngrams",
    "generate_candidates",
    "gestalt_similarity",
    "ingest_jsonl",
    "levenshtein_distance",
    "levenshtein_similarity",
    "load_abbreviations",
    "load_dictionary",
    "load_stopwords",
    "load_suffixes",
    "remove_stopwords",
    "round_score",
    "run_pipeline",
    "strip_noise",
    "tokenize",
    "turkish_lowercase",
    "verify_partition",
]

"""Defaults, bounds and choice lists that the CLI's parser shares with
`corpus`, `embed`, `apdf`, `objective`, `policy` and `evaluation`, which
import them from here.  Stdlib-only, so building the parser loads no numpy."""

DEFAULT_DIM = 256
DEFAULT_NGRAM = 3

SEMANTIC = "semantic"
POPULARITY = "popularity"

MODE_LITERAL = "literal"
MODE_TOP_ANCHORED = "top_anchored"
COMPARISON_MODES = (MODE_LITERAL, MODE_TOP_ANCHORED)
DEFAULT_MODE = MODE_TOP_ANCHORED
DEFAULT_ALPHA = 0.05
# Largest alpha, |learning rate|, weight scale and |token logprob|: far past
# any useful value and far inside the float range, so that no step or loss
# overflows with all of them at the limit.
MAX_SCALE = 1e100

DEFAULT_LEARNING_RATE = 0.5
DEFAULT_INIT_SCALE = 1e-3
DEFAULT_QUESTION_SCALE = 0.1

NORMALIZER_PAPER_HALF = "paper_half"
NORMALIZER_BY_K = "by_k"
NORMALIZERS = (NORMALIZER_PAPER_HALF, NORMALIZER_BY_K)
DEFAULT_KS = (1, 3)

"""riskcast: financial risk behavior forecasting at desk scale.

A hybrid Conv1D+LSTM regressor with hand-derived backpropagation, a linear
normal-equations baseline, the feature pipeline feeding them (moving
averages, lexicon sentiment, standardization, event encoding, causal
windowing), a seeded synthetic data generator, and an evaluation harness.
"""

from .data_io import (
    DatasetBundle,
    SplitSpec,
    chronological_split,
    load_bundle,
    load_market_csv,
    load_model,
    save_model,
)
from .errors import (
    DataError,
    DimensionError,
    ModelIOError,
    NumericalError,
    ParameterError,
    RiskcastError,
    SchemaError,
)
from .evaluation import (
    ComparisonReport,
    EvalReport,
    compare_models,
    compute_accuracy,
    compute_mse,
    compute_r2,
    evaluate_predictions,
)
from .features import (
    SampleSet,
    SentimentScore,
    aggregate_daily_sentiment,
    align_by_date,
    apply_standardize,
    build_windows,
    fit_standardize,
    moving_average,
    one_hot_encode,
    sentiment_score,
    sentiment_scores,
)
from .frames import TimeSeriesFrame
from .layers import Conv1DLayer, DenseLayer, DropoutSpec, LSTMCell
from .lexicon import SentimentLexicon, default_lexicon, load_lexicon
from .models import (
    HybridModel,
    LinearRegressionModel,
    ModelDims,
    linreg_fit,
    predict_batch,
)
from .pipeline import PipelineConfig, build_samples, make_datasets
from .preprocess import Preprocess
from .synth import SynthConfig, synth_generate
from .tensor import SeededRng, derive_seed
from .training import (
    AdamState,
    GridSearchResult,
    TrainConfig,
    TrainLog,
    adam_step,
    fit,
    gradient_check,
    grid_search,
    mse_loss,
)

__version__ = "0.1.0"

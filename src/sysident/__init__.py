"""Nonlinear system identification with from-scratch neural sequence models.

Temporal convolutional networks, NARX multilayer perceptrons and LSTMs with
hand-written reverse-mode gradients, the full training protocol (Adam,
plateau learning-rate schedule, early stopping), one-step-ahead and free-run
evaluation, grid-search sweeps and Volterra kernel extraction.
"""

__version__ = "0.1.0"

from .analysis import (EvalReport, VolterraKernels, error_spectrum, evaluate,
                       extract_volterra_kernels, fd_volterra_oracle, rmse,
                       volterra_deviation)
from .data import (Dataset, NoiseSpec, NormConstants, SequenceRecord,
                   compute_norm_constants, denormalize_output,
                   generate_held_gaussian_input, load_csv_dataset,
                   make_chen_dataset, normalize_dataset, save_csv_dataset,
                   simulate_chen)
from .errors import (ConfigError, DataError, DimensionError, NumericError,
                     ParameterError, SchemaError, SysidentError,
                     TrainingDiverged, UnsupportedError)
from .gridsearch import (GridRow, grid_expand, load_grid, marginal_quartiles,
                         run_grid, select_best)
from .models import (ModelConfig, build_model, count_parameters,
                     free_run_naive, load_checkpoint, predict_one_step,
                     save_checkpoint, simulate_free_run)
from .tensor import Rng, derive_seed
from .training import (Adam, RMSprop, SGDMomentum, TrainConfig, TrainHistory,
                       mse_loss, train, validation_loss)

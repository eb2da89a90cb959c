"""Cascades of triggered events: simulation and EM fitting.

The model is a background point process plus additive triggering
kernels. Each kernel factorizes into a fertility (expected offspring
per parent, possibly mark-dependent), a mark transition (child mark
given parent mark) and a delay density in time. Fitting treats the
unknown parent of every event as a latent variable and runs EM.
"""

from .delays import (DelaySpec, ExponentialDelay, ExpMixtureDelay, GammaDelay,
                     PiecewiseUniformDelay, UniformDelay)
from .engine import (CascadeModel, EStepStats, FitReport, HomogeneousBaseline,
                     KernelComponent, PeriodicBaseline, Responsibilities,
                     compensator, e_step, estep_stats, fast_applicable,
                     fit, intensity, log_likelihood, m_step, normalize,
                     windowed_log_likelihood)
from .errors import CascadesError, ConfigError, DataError, NumericalError
from .events import (BinaryMark, BinarySchema, CompositeMark, CompositeSchema,
                     Dataset, Event, LabelMark, LabelSchema, ingest, split,
                     write_events)
from .fertility import (CombinedFertility, ConstantFertility, FertilitySpec,
                        LinearFertility, MultiplicativeFertility)
from .graphs import (Graph, Hyperparams, fit_graph, fit_node, fit_round,
                     graph_log_likelihood, load_graph, node_model,
                     regularized_rates, simulate_graph, update_hyperparams,
                     write_graph)
from .simulate import (CausalForest, load_forest, parent_recovery_score,
                       simulate, substream, write_forest)
from .transitions import (CategoricalMatrix, FeatureMixture, FeaturePrior,
                          IdentityTransition, LabelMarginal, PriorTransition,
                          TransitionSpec, fit_categorical, fit_marginal,
                          fit_prior)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

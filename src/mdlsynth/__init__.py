"""mdlsynth: minimal-description-length rule learning from noisy examples.

The search enumerates candidate definite programs in increasing size, prunes
with noise-tolerant constraints that never exclude a minimum-cost program,
and combines promising single rules into unions through an exact weighted
selection solver.  Recursive programs are found by the enumeration itself.
"""

from .combine import CombineResult, PromisingPool, decode, solve
from .constrain import ConstraintStore, Kind, NoisyConstraint, derive
from .evaluate import (
    BackgroundKnowledge,
    Coverage,
    EngineError,
    EvalBudget,
    Evaluator,
    ExampleSet,
    mdl_cost,
)
from .generate import Bias, BiasError, GeneratorState, enumerate_rules
from .logic import (
    Hypothesis,
    Literal,
    Rule,
    Var,
    canonicalize,
    clause_subsumes,
    format_program,
    format_rule,
    is_recursive,
    is_separable,
    prog_size,
    rule_size,
)
from .parsing import ParseError, parse_examples, parse_ground_atom, parse_rules
from .search import SearchConfig, SearchStats, learn
from .tasks import RunReport, Task, generate_task, inject_noise

__version__ = "0.1.0"

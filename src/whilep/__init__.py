"""whilep: a batch toolchain for a small heap-manipulating while-language.

Parse and pretty-print programs, execute them under abort-aware big-step
semantics, run flow-sensitive points-to and backward liveness analyses,
emit certified dead-code-eliminated residuals, and stress the whole
stack with differential random testing. The command line is whilep.cli
(`python -m whilep`), which importing the package does not load.
"""

from .lang import (
    AExp, And, Assign, BExp, BinOp, BoolLit, Cmp, Cons, Dispose, If, IntLit,
    Lookup, Mutate, Nil, Not, Or, ParseError, Seq, Skip, Stmt, Var, While,
    free_vars, parse, pretty, seq_of, stmt_vars,
)
from .memory import NIL, Address, NilValue, ProgState, format_value, parse_addr, value_lt
from .interp import (
    DEFAULT_FUEL, Aborted, EvalError, ExecOutcome, Final, OutOfFuel,
    eval_aexp, eval_bexp, execute, zero_state,
)
from .pointsto import (
    DEFAULT_CAP, AnnStmt, PointsTo, abs_eval, annotate, bottom, cap_address,
    join, leq, models, transfer,
)
from .liveness import (
    Derivation, Judgment, LiveType, leaf_live_pre, live_annotate, models_live,
    similar_states,
)
from .deadcode import OptResult, optimize
from .certificate import (
    ACCEPT, CheckResult, FormatError, check, deserialize, serialize,
)
from .harness import GenConfig, gen_program, gen_state, make_similar_state, run_soundness_suite

__version__ = "0.1.0"

__all__ = [
    "AExp", "And", "Assign", "BExp", "BinOp", "BoolLit", "Cmp", "Cons",
    "Dispose", "If", "IntLit", "Lookup", "Mutate", "Nil", "Not", "Or",
    "ParseError", "Seq", "Skip", "Stmt", "Var", "While", "free_vars",
    "parse", "pretty", "seq_of", "stmt_vars",
    "NIL", "Address", "NilValue", "ProgState", "format_value", "parse_addr",
    "value_lt",
    "DEFAULT_FUEL", "Aborted", "EvalError", "ExecOutcome", "Final",
    "OutOfFuel", "eval_aexp", "eval_bexp", "execute", "zero_state",
    "DEFAULT_CAP", "AnnStmt", "PointsTo", "abs_eval", "annotate", "bottom",
    "cap_address", "join", "leq", "models", "transfer",
    "Derivation", "Judgment", "LiveType", "leaf_live_pre", "live_annotate",
    "models_live", "similar_states",
    "OptResult", "optimize",
    "ACCEPT", "CheckResult", "FormatError", "check", "deserialize",
    "serialize",
    "GenConfig", "gen_program", "gen_state", "make_similar_state",
    "run_soundness_suite",
    "__version__",
]

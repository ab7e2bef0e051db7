"""Compiler middle-end kit: a qualified/effectful calculus, monadic normal
form, a dependency-annotated graph IR, three executable semantics, graph
rewrites, and scheduling back to trees."""

from .core import (  # noqa: F401
    App, Assign, Cell, Cst, DepMap, DepMismatch, DependencyViolation, Deref,
    EMPTY_DEP, EMPTY_QUAL, EffectEscape, FuelExhausted, FunTy, GLet, GName,
    GenerationExhausted, GirError, HARD, JsonSchemaError, Lam, Let, Name,
    NameSupply, NApp, NAssign, NCst, NDeref, NLam, NRef, Nm, OMEGA,
    OverlapViolation, PURE, ParseError, Qualifier, QualifiedType,
    QualifierEscape, RW, RefNew, RefTy, RuntimeConfig, RwEffect, SavedCst,
    SavedLam, SideConditionFailed, Span, Store, Stuck, TY_ALLOC, TY_BOOL,
    TY_INT, TY_UNIT, TypeMismatch, TypingContext, UNIT_V, UnboundName,
    initial_store, overlap, saturate, subst_qual, term_to_text, graph_to_text,
)
from .typecheck import Typing, check_subtype, infer_direct, ty_subtype  # noqa: F401
from .mnf import (  # noqa: F401
    check_binding, check_mnf, collapse_administrative, embed, is_mnf, to_mnf,
)
from .graphir import (  # noqa: F401
    SynthState, check_deps, erase, initial_state, synthesize,
    synthesize_config,
)
from .interp import (  # noqa: F401
    EvalResult, SeparationReport, canonical_value, eval_direct, eval_graph,
    eval_store, separation_probe,
)
# `optimize` and `schedule` stay submodules: a function re-exported under a
# submodule's name would replace the package attribute that names it
from .optimize import RULES, RewriteReport  # noqa: F401
from .schedule import (  # noqa: F401
    Block, flatten, synthetic_graph, time_schedule,
)
from .testkit import (  # noqa: F401
    FuzzSummary, GenConfig, brute_deps, fuzz, gen_well_typed,
    make_corrupted, opportunity, run_three, shrink,
)

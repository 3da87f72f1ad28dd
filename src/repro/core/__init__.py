"""NFP's primary contribution: policies, dependency analysis, compiler.

Public surface:

* Policy language: :class:`Policy`, rule classes, :func:`parse_policy`.
* Action model: :class:`Action`, :class:`ActionProfile`,
  :class:`ActionTable` (Table 2), :func:`inspect_nf` (§5.4 tool).
* Dependency analysis: :data:`TABLE3` (Table 3),
  :func:`identify_parallelism` (Algorithm 1).
* Compilation: :class:`NFPCompiler`, :class:`ServiceGraph`,
  :func:`build_tables`, :class:`Orchestrator`.
* Extensions: :func:`check_policy` (conflict detection),
  :func:`partition_graph` (cross-server sketch).
"""

from .actions import Action, ActionProfile, Verb
from .action_table import ActionTable, TABLE2_ROWS, default_action_table
from .dependency import (
    TABLE3,
    Parallelism,
    ParallelismResult,
    can_share_buffer,
    identify_parallelism,
)
from .policy import (
    NFSpec,
    OrderRule,
    Policy,
    Position,
    PositionRule,
    PriorityRule,
)
from .policy_dsl import PolicySyntaxError, format_policy, parse_policy
from .conflicts import ConflictReport, PolicyConflictError, check_policy
from .graph import (
    ORIGINAL_VERSION,
    CopySpec,
    MergeOp,
    MergeOpKind,
    NFNode,
    ServiceGraph,
    Stage,
    StageEntry,
)
from .closures import CompiledGraph, table_view
from .compiler import CompilationResult, CompileError, NFPCompiler, compile_policy
from .tables import ClassificationTable, CTEntry, TableSet, build_tables
from .inspector import InspectionError, inspect_nf, inspect_nf_source
from .match import FlowMatch
from .scaling import ScalePlan, plan_scale_out
from .orchestrator import DeployedGraph, Orchestrator
from .partition import PartitionError, ServerSlice, partition_graph

__all__ = [
    "Action",
    "ActionProfile",
    "Verb",
    "ActionTable",
    "TABLE2_ROWS",
    "default_action_table",
    "TABLE3",
    "Parallelism",
    "ParallelismResult",
    "identify_parallelism",
    "can_share_buffer",
    "NFSpec",
    "Policy",
    "OrderRule",
    "PriorityRule",
    "PositionRule",
    "Position",
    "parse_policy",
    "format_policy",
    "PolicySyntaxError",
    "check_policy",
    "ConflictReport",
    "PolicyConflictError",
    "ServiceGraph",
    "Stage",
    "StageEntry",
    "NFNode",
    "CopySpec",
    "MergeOp",
    "MergeOpKind",
    "ORIGINAL_VERSION",
    "NFPCompiler",
    "CompilationResult",
    "CompileError",
    "compile_policy",
    "CompiledGraph",
    "table_view",
    "build_tables",
    "TableSet",
    "ClassificationTable",
    "CTEntry",
    "inspect_nf",
    "inspect_nf_source",
    "InspectionError",
    "FlowMatch",
    "plan_scale_out",
    "ScalePlan",
    "Orchestrator",
    "DeployedGraph",
    "partition_graph",
    "ServerSlice",
    "PartitionError",
]

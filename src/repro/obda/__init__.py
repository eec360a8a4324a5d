"""Ontology-Based Data Access: queries, mappings, rewriting, the OBDA engine."""

from .constraints import ExtensionalConstraints, prune_ucq_with_constraints
from .cq_parser import parse_cq, parse_query
from .datalog import Program, ProgramExtents, Rule, evaluate_program
from .eql import EqlAnd, EqlExists, EqlNot, EqlOr, EqlQuery, KAtom, evaluate_eql
from .evaluation import (
    ABoxExtents,
    ExtentProvider,
    HierarchyExtents,
    MappingExtents,
    evaluate_cq,
    evaluate_ucq,
)
from .mapping import (
    IriTemplate,
    MappingAssertion,
    MappingCollection,
    TargetAtom,
    ValueColumn,
)
from .queries import (
    Atom,
    Constant,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    homomorphism_exists,
    minimize_ucq,
)
from .rewriting import (
    DatalogRewriting,
    RewritingTooLarge,
    UnfoldedQuery,
    perfect_ref,
    presto_rewrite,
    unfold,
)
from .sparql import parse_sparql
from .sql import Database, Table, parse_sql
from .system import OBDASystem

__all__ = [
    "ABoxExtents",
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "EqlAnd",
    "EqlExists",
    "EqlNot",
    "EqlOr",
    "EqlQuery",
    "ExtensionalConstraints",
    "KAtom",
    "DatalogRewriting",
    "ExtentProvider",
    "HierarchyExtents",
    "IriTemplate",
    "MappingAssertion",
    "MappingCollection",
    "MappingExtents",
    "OBDASystem",
    "Program",
    "ProgramExtents",
    "Rule",
    "RewritingTooLarge",
    "Table",
    "TargetAtom",
    "UnfoldedQuery",
    "UnionQuery",
    "ValueColumn",
    "Variable",
    "evaluate_cq",
    "evaluate_eql",
    "evaluate_program",
    "evaluate_ucq",
    "homomorphism_exists",
    "minimize_ucq",
    "parse_cq",
    "parse_query",
    "parse_sparql",
    "parse_sql",
    "perfect_ref",
    "presto_rewrite",
    "prune_ucq_with_constraints",
    "unfold",
]

"""The logical plan IR.

A logical plan is the translation layer's output: rewriting atoms resolved
against the catalog, ordered for access-pattern feasibility, grouped into
maximal per-store delegation units, and arranged as a left-deep join chain
with a final projection (and optional duplicate elimination).  It says
nothing about join algorithms or store-request compilation — that is the
physical pass's job (:mod:`repro.plan.physical`), which keeps the cost
model's choices out of the structural translation step.

Accesses to fragments materialized in a **sharded store** additionally carry
the shard selection: when an equality constant in the atom binds the
fragment's shard key, routing is computed here (via the descriptor's
:class:`~repro.stores.sharding.ShardingSpec`) and the access is *pruned* to
the single shard that can hold matching rows; otherwise every shard is a
target and the physical pass fans the scan out shard-by-shard.  The plan
cache keeps the constants of any query reaching a sharded fragment literal
(they are not turned into template parameters), so a cached pruned plan can
never be replayed against a different shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.catalog.manager import StorageDescriptorManager
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.errors import PlanningError
from repro.stores.sharded import ShardedStore
from repro.translation.grouping import (
    AtomAccess,
    DelegationGroup,
    group_for_delegation,
    order_atoms,
)

__all__ = [
    "LogicalNode",
    "LogicalAccess",
    "LogicalJoin",
    "LogicalProject",
    "LogicalDistinct",
    "LogicalPlan",
    "build_logical_plan",
    "shard_selection",
]


class LogicalNode:
    """Base class of logical plan nodes."""

    def children(self) -> Sequence["LogicalNode"]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Printable logical sub-plan."""
        line = "  " * indent + self.describe()
        for child in self.children():
            line += "\n" + child.explain(indent + 1)
        return line


@dataclass(slots=True)
class LogicalAccess(LogicalNode):
    """One delegation group: the largest sub-query one store can evaluate.

    ``shard_targets`` is ``None`` for unsharded fragments; for fragments in a
    sharded store it lists the shards that can hold matching rows (all of
    them for an unpruned scan, exactly one when a constant binds the shard
    key), and ``shard_total`` is the store's shard count.
    """

    group: DelegationGroup
    shard_targets: tuple[int, ...] | None = None
    shard_total: int = 0

    def describe(self) -> str:
        fragments = "+".join(
            access.descriptor.fragment_name for access in self.group.accesses
        )
        sharding = ""
        if self.shard_targets is not None:
            sharding = f", shards={len(self.shard_targets)}/{self.shard_total}"
        return f"Access[store={self.group.store.name}, {fragments}{sharding}]"


@dataclass(slots=True)
class LogicalJoin(LogicalNode):
    """Join the plan so far with one more delegation group.

    ``requires_binding`` is True when the right group's access pattern needs
    values produced by the left side (the join *must* be a bind join);
    ``algorithm`` pins the implementation ('hash' or 'bind'), or is None to
    let the physical pass choose.
    """

    left: LogicalNode
    right: LogicalAccess
    requires_binding: bool = False
    algorithm: str | None = None

    def children(self) -> Sequence[LogicalNode]:
        return (self.left, self.right)

    def describe(self) -> str:
        how = self.algorithm or ("bind" if self.requires_binding else "any")
        return f"Join[{how}]"


@dataclass(slots=True)
class LogicalProject(LogicalNode):
    """Project the head variables of the rewriting."""

    child: LogicalNode
    variables: tuple[str, ...]

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project[{', '.join(self.variables)}]"


@dataclass(slots=True)
class LogicalDistinct(LogicalNode):
    """Set semantics: eliminate duplicate result rows."""

    child: LogicalNode

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)


@dataclass(slots=True)
class LogicalPlan:
    """The logical plan of one rewriting, plus its planning metadata."""

    rewriting: ConjunctiveQuery
    root: LogicalNode
    groups: list[DelegationGroup]
    head_variables: tuple[str, ...]
    bound_parameters: tuple[Variable, ...] = ()

    def explain(self) -> str:
        """Printable logical plan."""
        return self.root.explain()


def shard_selection(access: AtomAccess) -> tuple[tuple[int, ...], int] | None:
    """The shard targets of one atom access, or ``None`` when not sharded.

    Pruning uses the equality constants of the atom: a constant on the shard
    key routes to exactly one shard (under either strategy); without one,
    every shard is a target.  Range predicates on the shard key live outside
    the conjunctive pivot query (they are residual, mediator-side work) so
    range pruning happens inside the sharded store when a compiled request
    carries such a predicate — never here.
    """
    spec = access.descriptor.sharding
    if spec is None or not isinstance(access.store, ShardedStore):
        return None
    if spec.shards != access.store.shard_count:
        raise PlanningError(
            f"fragment {access.descriptor.fragment_name!r} declares {spec.shards} shards "
            f"but store {access.store.name!r} has {access.store.shard_count}"
        )
    constants = access.constant_by_column()
    if spec.shard_key in constants:
        targets = spec.shards_for_predicates([("=", constants[spec.shard_key])])
    else:
        targets = spec.all_shards()
    return targets, spec.shards


def _access_node(group: DelegationGroup) -> LogicalAccess:
    """A LogicalAccess for ``group``, with shard targets when applicable."""
    if group.is_single():
        selection = shard_selection(group.accesses[0])
        if selection is not None:
            targets, total = selection
            return LogicalAccess(group, shard_targets=targets, shard_total=total)
    return LogicalAccess(group)


def build_logical_plan(
    rewriting: ConjunctiveQuery,
    manager: StorageDescriptorManager,
    bound_parameters: Sequence[Variable] = (),
    distinct: bool = False,
) -> LogicalPlan:
    """Translate a rewriting into the logical IR.

    Atoms are ordered so every access pattern is satisfiable, grouped into
    per-store delegation units, and chained into a left-deep join tree.
    """
    bound = tuple(bound_parameters)
    ordered = order_atoms(rewriting, manager, bound_parameters=bound)
    groups = group_for_delegation(ordered)
    if not groups:
        raise PlanningError(f"rewriting {rewriting.name!r} produced no delegation groups")

    parameters: set[Variable] = set(bound)
    root: LogicalNode | None = None
    for group in groups:
        needs_binding = any(
            access.requires_binding(parameters) for access in group.accesses
        )
        access_node = _access_node(group)
        if root is None:
            if needs_binding:
                raise PlanningError(
                    f"first delegation group of {rewriting.name!r} needs runtime bindings; "
                    "the atom order should have prevented this"
                )
            root = access_node
        else:
            root = LogicalJoin(left=root, right=access_node, requires_binding=needs_binding)

    head_variables = tuple(
        term.name for term in rewriting.head_terms if isinstance(term, Variable)
    )
    root = LogicalProject(root, head_variables)
    if distinct:
        root = LogicalDistinct(root)
    return LogicalPlan(
        rewriting=rewriting,
        root=root,
        groups=groups,
        head_variables=head_variables,
        bound_parameters=bound,
    )

"""Rewriting translation: grouping, delegation and physical planning."""

from repro.translation.grouping import (
    AtomAccess,
    DelegationGroup,
    group_for_delegation,
    order_atoms,
    resolve_atoms,
)

__all__ = [
    "AtomAccess",
    "DelegationGroup",
    "resolve_atoms",
    "order_atoms",
    "group_for_delegation",
]


"""Finite duality engine for prioritised default bilattices.

Builds the generating bilattices and their multi-sorted duals, checks the
axiomatisation of the dual category, converts between the multi-sorted and
ranked single-sorted presentations, constructs Priestley duals of lattice
reducts two independent ways, and reproduces the free-algebra counts exactly.
"""

__version__ = "0.1.0"

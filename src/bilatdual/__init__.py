"""Finite duality engine for prioritised default bilattices.

Builds the generating bilattices and their multi-sorted duals, checks the
axiomatisation of the dual category, converts between the multi-sorted and
ranked single-sorted presentations, constructs Priestley duals of lattice
reducts two independent ways, and reproduces the free-algebra counts exactly.
"""

from .algebra import (FiniteAlgebra, GuardExceeded, SignatureN, build_jn, build_mk,
                      enumerate_homs, enumerate_subuniverses, free_algebra,
                      generated_subalgebra, generated_subalgebra_in_product, is_homomorphism,
                      mk_algebras, product)
from .bridge import FreeSizes, free_size_formula, partitioned_downset_count, verify_translation
from .distlat import (Lattice, lattice_of_downsets, lattice_of_upsets, lattice_reduct,
                      lattices_isomorphic, priestley_dual_of_lattice)
from .multisorted import (MultiSortedStructure, build_alter_ego, check_axioms, hom_algebra_E,
                          membership_by_separation, natural_dual, verify_counit_iso,
                          verify_unit_iso)
from .piggyback import (Carrier, build_carrier_space, build_carriers, check_sep,
                        piggyback_relations, table3_report, verify_piggyback_iso)
from .posets import (Poset, antichain, chain, check_relation, count_downsets,
                     direct_product, disjoint_union, dual, enumerate_downsets, grid,
                     linear_sum)
from .ranked import (DoubledSpace, RankedPriestleySpace, check_axioms_B, construct_P, functor_F,
                     functor_G)
from .verify import run_suite

__version__ = "0.1.0"

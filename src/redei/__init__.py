"""Exact-arithmetic toolkit for the cycle structures of Redei permutations
on the projective line over an odd finite field: closed-form structures,
same-structure pair catalogs and symmetries, explicit families, and
brute-force oracles to check all of it against."""

from .catalog import (
    NoSuchInvolution,
    PairCatalog,
    StructureClass,
    cross_field_shift,
    half_minus_pair_shares_structure,
    half_shifted_pair_shares_structure,
    involution_for_divisor,
    isolated_count,
    isolated_values,
    negated_pair_shares_structure,
    pair_shares_structure,
    power_companion,
    shifted_pair_shares_structure,
    structure_classes,
    structure_pairs,
    valid_indices,
)
from .cyclestruct import (
    CycleStructure,
    cycle_structure,
    fixed_point_count,
    half_shift_shares_structure,
    iterated_fixed_point_count,
    prime_power_gcds_agree,
    prime_power_signature,
    same_structure_by_iterates,
    shares_cycle_structure,
)
from .families import (
    FamilyPrediction,
    InvalidFamilyInput,
    frobenius_family,
    gcd_power_pm,
    p_qmp1_family,
    pm2_family,
    quarter_family,
)
from .gf import (
    INFINITY,
    Field,
    build_field,
    element_str,
    first_with_character,
    point_str,
    quadratic_character,
)
from .maps import (
    NotAPermutation,
    PermutationTable,
    build_permutation,
    cycle_decomposition,
    mult_map_structure,
    power_map_structure,
    power_map_structures,
    redei_eval,
    redei_structures,
)
from .numthy import (
    FactorizationError,
    PrimeFactorization,
    divisors,
    euler_phi,
    factorize,
    gcd_power_minus_one,
    is_prime,
    lte_valuation,
    mult_order,
    padic_valuation,
    prime_power_decomposition,
)

__version__ = "0.1.0"

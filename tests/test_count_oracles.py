"""Character-based counts against the dense rank oracles.

``hom_space_dimension`` and the multiplicities behind ``isotypic_basis``
come from characters; ``rep_oracles`` counts them from the matrices (the
Kronecker null space and character-projector ranks).  Every abelian
group of order <= 16 is covered with conjugated reps that mix real and
rotation-type irreps at unequal dimensions.
"""

import numpy as np
import pytest

from dha.commutant import hom_space_dimension
from dha.groups import (
    conjugate_representation,
    group_from_descriptor,
    irreps_real,
    regular_rep_copies,
    rep_direct_sum,
)
from dha.isotypic import character_projector, isotypic_basis

from conftest import ABELIAN_GROUPS_LE_16, random_orthogonal
from rep_oracles import kron_hom_dimension, projector_rank


def mixed_reps(table, rng, n=3):
    """``n`` conjugated direct sums of up to three irreps each, of strictly increasing dimension."""
    reps, dim = [], 0
    for _ in range(n):
        picks = rng.choice(len(table), size=min(3, len(table)), replace=False)
        parts = [table[int(i)].as_representation() for i in picks for _ in range(rng.integers(1, 3))]
        while sum(p.dim for p in parts) <= dim:
            parts.append(table[0].as_representation())
        plain = rep_direct_sum(parts)
        dim = plain.dim
        reps.append(conjugate_representation(plain, random_orthogonal(rng, dim)))
    return reps


@pytest.mark.parametrize("desc", ABELIAN_GROUPS_LE_16)
def test_character_counts_match_dense_oracles(desc):
    table = irreps_real(group_from_descriptor(desc))
    reps = mixed_reps(table, np.random.default_rng(ABELIAN_GROUPS_LE_16.index(desc)))
    for rep in reps:
        found = {blk.label: blk.multiplicity for blk in isotypic_basis(rep).blocks}
        for ir in table:
            rank = projector_rank(character_projector(rep, ir))
            assert found.get(ir.label, 0) * ir.dim == rank
    for a in reps:
        for b in reps:
            assert hom_space_dimension(a, b) == kron_hom_dimension(a, b)


def test_hom_dimension_at_paper_size():
    # The Kronecker oracle needs an 18432 x 2304 SVD here; each of the 8 one-dim
    # irreps of C2xC2xC2 occurs once per regular copy, so the count is 8 * 6 * 6.
    rep = regular_rep_copies(group_from_descriptor("C2xC2xC2"), 48)
    assert hom_space_dimension(rep, rep) == 8 * 6 * 6

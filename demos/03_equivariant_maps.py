#!/usr/bin/env python3
"""The commutant calculus: bases of equivariant linear maps.

Schur's lemma pins down every linear map that commutes with a group
representation: nothing between inequivalent irreps, scalars on copies of
an absolutely irreducible irrep, and a two-generator rotation-scaling
algebra on rotation-type irreps.  This script builds those bases, shows
group averaging as the orthogonal projection onto them, and counts
equivariant maps between different spaces.
"""

import numpy as np

from dha import (
    EquivariantLinearMap,
    assemble,
    commutant_basis,
    coordinates,
    equivariance_residual,
    equivariant_project,
    hom_space_dimension,
    irreps_real,
    isotypic_basis,
    make_cyclic,
    regular_representation,
    regular_rep_copies,
)

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(1)

# The commutant of the C4 regular representation: one scalar per 1-D
# irrep block plus the 2-generator algebra on the rotation block -> 4.
# It is built from the isotypic basis alone, and its maps act in the
# isotypic coordinates, where the group matrices are cb.iso.rotated_rep().
group = make_cyclic(4)
reg = regular_representation(group)
iso = isotypic_basis(reg)
cb = commutant_basis(iso)
rep_iso = cb.iso.rotated_rep()
print(f"commutant of the C4 regular representation: {len(cb)} generators")
for blk, sl in zip(cb.blocks, cb.block_slices):
    n = sl.stop - sl.start
    print(f"  block {blk.label}: {n} generator(s)")

# Every generator commutes with every group matrix, exactly by layout:
worst = max(equivariance_residual(b, rep_iso) for b in cb.basis_matrices)
print("largest commutation residual over generators:", f"{worst:.2e}")

# Group averaging projects any matrix onto the commutant; the result
# matches reconstruction through the generator coordinates.
a = rng.standard_normal((4, 4))
projected = equivariant_project(a, rep_iso)
theta = coordinates(a, cb)
recon = assemble(EquivariantLinearMap(cb, theta))
print("\nrandom matrix, residual before averaging:",
      f"{equivariance_residual(a, rep_iso):.3f}")
print("after averaging:", f"{equivariance_residual(projected, rep_iso):.2e}")
print("averaging == coordinate reconstruction:", f"{np.max(np.abs(projected - recon)):.2e}")

# Free parameters make equivariant maps cheap to parameterize: assemble
# from coordinates, recover coordinates exactly (Frobenius orthonormal).
theta = rng.standard_normal(len(cb))
k = assemble(EquivariantLinearMap(cb, theta))
print("\ncoordinate round trip residual:",
      f"{np.max(np.abs(coordinates(k, cb) - theta)):.2e}")
print("assembled map is block-diagonal:")
print(np.round(k, 3))

# Between DIFFERENT spaces, the dimension of the space of equivariant
# maps counts matching irrep copies (zero when nothing matches):
table = irreps_real(make_cyclic(5))
triv, rot1, rot2 = (ir.as_representation() for ir in table)
print("\nhom-space dimensions for C5 irreps:")
print("  trivial -> rotation:", hom_space_dimension(triv, rot1))
print("  rotation -> itself:", hom_space_dimension(rot1, rot1))
print("  rotation -> other rotation:", hom_space_dimension(rot1, rot2))

# For stacked regular representations the commutant dimension equals the
# group order times the square of the number of copies:
rep2 = regular_rep_copies(make_cyclic(3), 6)
print("\ncommutant dimension of 2 x regular(C3):", hom_space_dimension(rep2, rep2))

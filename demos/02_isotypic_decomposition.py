#!/usr/bin/env python3
"""Isotypic decomposition: recovering hidden block structure.

Scrambles a known direct sum of irreps by a random orthogonal change of
basis, then recovers the multiplicities and an aligned isotypic basis in
which every group matrix is exactly block-diagonal.
"""

from pathlib import Path

import numpy as np

from dha import (
    conjugate_representation,
    irreps_real,
    isotypic_basis,
    isotypic_project,
    is_g_stable,
    group_from_descriptor,
    rep_direct_sum,
    save_isotypic_basis,
)

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)
np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(0)

# Plant a representation of C2 x C3 with known content: two copies of the
# trivial irrep, one sign copy, and two copies of the first rotation irrep.
group = group_from_descriptor("C2xC3")
table = irreps_real(group)
planted = {"triv": 2, "sgn": 1, "rot1": 2, "rot2": 0}
parts = []
for ir in table:
    parts.extend([ir.as_representation()] * planted[ir.label])
plain = rep_direct_sum(parts)

# Hide the structure behind a random orthogonal basis change.
v, _ = np.linalg.qr(rng.standard_normal((plain.dim, plain.dim)))
rep = conjugate_representation(plain, v, "scrambled")
print(f"scrambled representation of {group.descriptor}, dim {rep.dim}")

# Recover: multiplicities, offsets, and the aligned change of basis Q.
basis = isotypic_basis(rep)
print("\nrecovered blocks (label, irrep dim, multiplicity, offset):")
for blk in basis.blocks:
    print(f"  {blk.label:5s} d={blk.irrep.dim} m={blk.multiplicity} offset={blk.offset}")
print("conjugation residual:", f"{basis.conjugation_residual():.2e}")
print("orthogonality residual:", f"{basis.orthogonality_residual():.2e}")

# In the recovered basis the group matrices are exact direct sums of the
# stored irrep matrices:
rotated = basis.rotated_rep()
print("\nrho(g=1) in the isotypic basis:")
print(np.round(rotated.matrices[1], 6))

# Vectors split into per-block components that sum back and are mutually
# orthogonal (a finite Parseval identity):
x = rng.standard_normal(rep.dim)
components = [isotypic_project(x, basis, i) for i in range(len(basis.blocks))]
print("\nresolution of identity residual:", f"{np.max(np.abs(sum(components) - x)):.2e}")
print("component norms^2:", [round(float(c @ c), 4) for c in components],
      "sum:", round(float(x @ x), 4))

# Each isotypic component is a group-stable subspace.
for i, blk in enumerate(basis.blocks):
    cols = basis.q[blk.slice].T
    print(f"block {blk.label} is G-stable:", is_g_stable(cols, rep))

# The basis serializes to JSON with a tolerance report; readers verify it.
path = OUT / "isotypic_basis.json"
save_isotypic_basis(basis, path)
print("\nsaved basis to", path)

"""
Light-cone mode calculus: harmonic bases, Gauss decomposition, iota expansions
==============================================================================

A field coefficient in D dimensions is indexed by modes (n, m, sigma) standing
for (z^2)^n h_{m,sigma}(z); everything below manipulates those modes exactly.
"""

from lambdacone import (
    Kernel,
    VarSpace,
    cone_from_poly,
    gauss_decompose,
    h_dim,
    harmonic_basis,
    iota_antisym,
    iota_expand,
)

# Dimensions of harmonic spaces, and the canonical echelon bases.
print("h_dim(D, m) for D = 1..4, m = 0..5:")
for D in (1, 2, 3, 4):
    print(f"  D={D}:", [h_dim(D, m) for m in range(6)])

print("\ncanonical harmonic basis, D=3, m=2:")
for sigma, h in enumerate(harmonic_basis(3, 2), start=1):
    print(f"  h_(2,{sigma}) =", h)

# Gauss decomposition: p = sum_j (z^2)^j p_j with p_j harmonic, exactly.
vs = VarSpace(2, ("z",))
p = vs.var("z", 1) ** 4
print("\nz1^4 =", " + ".join(f"(z^2)^{j} * ({pj})" for j, pj in gauss_decompose(p)))

# The same polynomial as a cone series, and coefficient extraction.
series = cone_from_poly(p)
print("cone modes of z1^4:", {mode: str(c) for mode, c in series.items()})
print("wick coefficient (mode (0,0,1)):", series.wick())
print("singular part is empty:", not series.singular_part())
print("residue of (z^2)^(-1), D=2:", cone_from_poly(vs.one, "z").mul_x2(-1).residue())

# Expanding ((z-w)^2)^(-1) where |w| << |z|: in D=1 the classical geometric
# series with coefficients j+1 appears.
expansion = iota_expand(1, 1, "zw", 5)
print("\niota_zw (z-w)^(-2), D=1, by w-degree:")
for (zm, wm), coeff in expansion.items():
    print(f"  z-mode {zm}, w-mode {wm}: {coeff}")

# The two expansion regions agree exactly on kernels without a (z-w)^2 pole
# and differ by a delta-like distribution otherwise.
print("\nantisymmetrization of z1/(z^2 w^2):",
      "zero" if not iota_antisym(Kernel(2, z_exps=(1, 0), z_pole=1, w_pole=1), 5) else "nonzero")
print("antisymmetrization of 1/(z-w)^2:",
      "zero" if not iota_antisym(Kernel(2, zw_pole=1), 5) else "nonzero")

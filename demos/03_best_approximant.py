"""Best approximation in the p-norm: certificates, the conditional
expectation shortcut on the diagonal algebra, and the quotient norm.
"""

import numpy as np

from ncgeo import core
from ncgeo.core import TracialAlgebra, p_norm
from ncgeo.models import ModelSpec, build_model_space, conditional_expectation
from ncgeo.projection import SkewSubspace, best_approximant, quotient_norm

alg = TracialAlgebra.full(3)
rng = np.random.default_rng(3)

S = SkewSubspace(alg, [core.random_skew(alg, rng) for _ in range(2)])
z = core.random_skew(alg, rng)
for p in (2, 4, 6):
    res = best_approximant(z, S, p)
    print(f"p = {p}: ||z - Q(z)||_p = {p_norm(res.residual, p, alg):.8f}, "
          f"certificate max|tau(w^(p-1) b_k)| = {res.optimality_residual:.2e}, "
          f"{res.iterations} line-search trials")

print("\nidempotence and homogeneity:")
res = best_approximant(z, S, 4)
print("  ||Q(z - Q(z))||_4 =", p_norm(best_approximant(res.residual, S, 4).projection, 4, alg))
print("  ||Q(-2z) + 2Q(z)||_4 =",
      p_norm(best_approximant(-2 * z, S, 4).projection + 2 * res.projection, 4, alg))

print("\non the diagonal algebra of M (x) M_2 the projection is the block truncation:")
sp = build_model_space(ModelSpec("diag-m2", blocks=(2,)))
zt = core.random_skew(sp.ambient, rng)
q = best_approximant(zt, sp.isotropy, 4).projection
e = conditional_expectation(zt, sp)
print("  ||Q(z) - E(z)||_4 =", p_norm(q - e, 4, sp.ambient))

print("\nquotient norms (inf over the subspace):")
print("  p = 4 exact:", quotient_norm(z, S, 4))
(lower, upper), witness = quotient_norm(z, S, np.inf, return_witness=True)
print("  p = inf certified bracket:", lower, "<= inf_y ||z - y|| <=", upper)
print("  the upper end is attained at ||z - y|| =", core.operator_norm(z - witness))

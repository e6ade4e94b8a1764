"""The positivity criterion, and why two evaluation modes exist.

An (alpha, beta)-profile phi yields a genuine Finsler norm on |s| <= b iff
phi > 0 and phi - s phi' + (b^2 - s^2) phi'' > 0 there.  The infinite-series
profile fails this on any interval containing s = 0, yet all of its
curvature formulas stay well-defined rational expressions; "formal" mode
evaluates them anyway, "validated" mode refuses.
"""

import homfinsler as hf

print("positivity criterion on [-b, b]:")
cases = [("randers", 0.9), ("exponential", 0.5), ("matsumoto", 0.4),
         ("infinite_series", 0.5)]
for family, b in cases:
    spec = hf.MetricSpec(hf.phi_family(family), b)
    rep = hf.shen_check(spec)
    verdict = "holds" if rep.holds else "FAILS"
    print(f"  {family:<16s} b = {b}: {verdict:<6s} "
          f"min = {rep.min_value:+.6f} at s = {rep.argmin_s:+.4f}")

# A dip narrower than the grid spacing: this cubic's criterion is -1e-6 at
# s = 0.0025 and positive at every point of the 201-point grid.  For an exact
# profile phi = N/D the criterion is G/D^3, G = N D^2 - s N' D + (b^2 - s^2) N'',
# so the roots of N, D and G (and the midpoints between them) locate the dip.
s0, b = 0.0025, 0.5
c2, c3 = -1.0 / 3.0, -2.0 * s0 / (6.0 * b * b)
dip = hf.PhiFamily.polynomial([s0 * s0 - 1e-6 - 2.0 * b * b * c2, 0.0, c2, c3])
rep = hf.shen_check(hf.MetricSpec(dip, b))
print(f"  {'cubic with dip':<16s} b = {b}: {'holds' if rep.holds else 'FAILS':<6s} "
      f"min = {rep.min_value:+.3e} at s = {rep.argmin_s:+.6f} (exact roots)")

# On the coarsest admissible grid {-b, 0, b} the series failure is exactly
# the value at s = 0, which is -2 b^2:
spec = hf.MetricSpec(hf.phi_family("infinite_series"), 0.5)
coarse = hf.shen_check(spec, samples=3)
print(f"\nseries on the 3-point grid: min = {coarse.min_value} at s = "
      f"{coarse.argmin_s} (equals -2 b^2 = {-2 * 0.5**2})")

# Formal mode computes anyway; validated mode refuses with a named reason.
entry = hf.catalog_get("heisenberg3")
spec = hf.MetricSpec.for_vector(hf.phi_family("infinite_series"), entry.v)
y = [1.0, 1.0, 1.0]
print("\nformal mode S:", hf.s_curvature(entry.model, entry.v, spec, y))
try:
    hf.s_curvature(entry.model, entry.v, spec, y, mode="validated")
except hf.ValidatedModeError as exc:
    print("validated mode:", exc)

# The strict norm refuses out-of-domain s in any mode: for the series
# profile phi is positive only for s > 1.
try:
    hf.finsler_norm(spec, alpha=1.0, beta=0.5)
except hf.DomainError as exc:
    print("strict norm:", exc)
print("in-domain norm:", hf.finsler_norm(spec, alpha=1.0, beta=2.0),
      "(= phi(2) = 4: norms demand s in the positivity domain)")

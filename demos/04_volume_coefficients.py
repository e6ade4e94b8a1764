"""Volume factors of the two standard volume forms.

f(b) rescales the Riemannian volume of alpha into the Busemann-Hausdorff or
Holmes-Thompson volume of F.  For phi = 1 both factors are exactly 1; for
the Randers profile the BH factor has the closed form (1 - b^2)^((n+1)/2),
which doubles as a quadrature test.  The integrals run over x = cos t with
Gauss-Jacobi rules for the weight (1 - x^2)^((n-3)/2), doubling the node
count until two successive factors agree to a relative 1e-11.
"""

import numpy as np

import homfinsler as hf

print("Randers BH factor vs closed form, n = 3:")
print(f"{'b':>5s} {'quadrature':>16s} {'(1-b^2)^2':>16s} {'diff':>10s}")
for b in (0.1, 0.3, 0.5, 0.7, 0.9):
    f = hf.volume_coefficient(hf.phi_family("randers"), b, 3, "bh")
    exact = (1 - b * b) ** 2
    print(f"{b:>5.1f} {f:>16.12f} {exact:>16.12f} {abs(f - exact):>10.2e}")
print()

print("Both factors across profiles (b = 0.5, n = 3):")
print(f"{'family':<16s} {'f_bh':>14s} {'f_ht':>14s}")
for family in ("randers", "exponential", "matsumoto"):
    f_bh, f_ht = (hf.volume_coefficient(hf.phi_family(family), 0.5, 3, form)
                  for form in ("bh", "ht"))
    print(f"{family:<16s} {f_bh:>14.9f} {f_ht:>14.9f}")
print()

# The infinite-series profile has phi(0) = 0, which makes the BH integrand
# 1/phi^n non-integrable at x = 0: the estimates keep growing as the nodes
# close in on the pole, and QuadratureError reports the last two after four
# doublings.  The HT weight T stays polynomial in phi and integrates fine:
series = hf.phi_family("infinite_series")
print("infinite series, b = 0.5, n = 3:")
print("  f_ht =", hf.volume_coefficient(series, 0.5, 3, "ht"))
try:
    hf.volume_coefficient(series, 0.5, 3, "bh")
except hf.QuadratureError as exc:
    print("  f_bh:", exc)

# T(s) itself, the HT integrand weight:
print("\nT(s) for the exponential profile, n = 2, b = 0.3 "
      "(equals exp(2s)(1 - s + b^2 - s^2)):")
for s in (-0.3, 0.0, 0.3):
    t = hf.t_function(hf.phi_family("exponential"), s, 0.3, 2)
    expected = np.exp(2 * s) * (1 - s + 0.09 - s * s)
    print(f"  T({s:+.1f}) = {t:.12f}   check {expected:.12f}")

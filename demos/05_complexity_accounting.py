"""Counting every real addition and multiplication.

``measured_run`` runs either optimizer's instrumented scalar ascent and
tallies real arithmetic under a fixed cost model (complex multiply = 4
mults + 2 adds, complex add = 2 adds, squared magnitude = 2 mults + 1 add).
The tallies land exactly on the closed-form predictions, and the closed forms
show why the cached variant wins: its per-sweep cost is quadratic in N but
the 2^b candidate scoring is additive, not multiplicative.
"""

import numpy as np

from ris_scma import (FadingConfig, Geometry, PhaseAlphabet,
                      draw_link_channels, measured_run, predicted_ao,
                      predicted_lc_ao)

geom = Geometry(40.0, 1.5, 2.0, 2.4e9)
fading = FadingConfig()

print("measured vs predicted (adds, mults), T = 1:")
print(f"{'R':>3} {'N':>4} {'b':>3} {'d_f':>4}   {'ascent measured':>22} "
      f"{'predicted':>18}   {'cached measured':>18} {'predicted':>16}")
for (r, n, b, df) in [(1, 1, 1, 1), (4, 8, 2, 3), (4, 16, 3, 3), (2, 12, 3, 2)]:
    ch = draw_link_channels(np.random.default_rng(n), r, df, geom, fading, n)
    alpha = PhaseAlphabet.from_bits(b)
    _, ma = measured_run("ao", ch, alpha, 1)
    _, ml = measured_run("lc_ao", ch, alpha, 1)
    pa = predicted_ao(r, n, b, df)
    pl = predicted_lc_ao(r, n, b, df)
    assert ma == pa and ml == pl
    print(f"{r:>3} {n:>4} {b:>3} {df:>4}   "
          f"({ma.real_additions:>9}, {ma.real_multiplications:>9}) "
          f"({pa.real_additions:>7}, {pa.real_multiplications:>7})   "
          f"({ml.real_additions:>7}, {ml.real_multiplications:>7}) "
          f"({pl.real_additions:>6}, {pl.real_multiplications:>6})")
print("all rows match exactly\n")

print("additions per sweep vs panel size (R=4, b=3, d_f=3):")
print(f"{'N':>5} {'full-norm':>14} {'cached':>12} {'ratio':>8}")
for n in (8, 16, 32, 64, 128, 256):
    ao = predicted_ao(4, n, 3, 3).real_additions
    lc = predicted_lc_ao(4, n, 3, 3).real_additions
    print(f"{n:>5} {ao:>14,} {lc:>12,} {ao / lc:>8.2f}")

print("\nadditions per sweep vs phase bits (R=4, N=32, d_f=3):")
print(f"{'b':>5} {'full-norm':>14} {'cached':>12}")
for b in (1, 2, 3, 4, 5, 6):
    ao = predicted_ao(4, 32, b, 3).real_additions
    lc = predicted_lc_ao(4, 32, b, 3).real_additions
    print(f"{b:>5} {ao:>14,} {lc:>12,}")
print("\nthe full-norm count doubles per extra bit; the cached count "
      "barely moves (the coupling work dominates)")

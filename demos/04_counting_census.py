"""Counting bounds: rooted connected cube sets and rooted contours.

The cubes form a vertex-transitive graph of degree k = (2r+1)^d - 1.  Exact
enumeration pins the number of connected cube sets through a fixed root and
the number of contours rooted at a site, both far below their exponential
bounds (e k)^n and (4 e k)^n / 2.  Every counted contour is also planted
in a configuration and recovered verbatim by the contour extractor.
"""

import math

from peierls import (contour_roundtrip_mismatches, max_degree, potts_model,
                     rooted_contour_counts, rooted_subgraph_counts)

d, r = 2, 1
k = max_degree(d, r)
print(f"cube graph degree k = {k}")

counts = rooted_subgraph_counts(d, r, 6)
print("\nconnected cube sets containing a fixed root:")
print("  n   exact          bound (e k)^n    ratio")
for n in range(1, 7):
    bound = (math.e * k) ** n
    print(f"  {n}  {counts[n]:8d}  {bound:16.6g}  {counts[n] / bound:.2e}")

model = potts_model(q=2)
report = rooted_contour_counts(model, (0, 0), 10)
print("\ncontours rooted at the origin (two-spin model, exterior 1):")
print("  n   exact      bound (4 e k)^n / 2")
for rec in report.records:
    if rec.count:
        print(f"  {rec.n}  {rec.count:6d}  {rec.bound:16.6g}")
print(f"(interiors enumerated up to {report.interior_cap} sites)")

mismatches = contour_roundtrip_mismatches(model, report)
print(f"\nround-trip of the {len(report.contours)} counted contours against the "
      f"contour extractor: {len(mismatches)} mismatches")

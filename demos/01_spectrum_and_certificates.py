"""Cube energies, the spectral gap, and ground-state certificates.

A finite-range model is resummed over cubes: every cube of range r carries
an energy assembled from the interaction terms it contains, weighted so the
cube sum reproduces the plain Hamiltonian.  Enumerating all cube patterns
gives the minimal energy, the gap to the next distinct value, and the set of
minimizing patterns; when the minimizers are exactly the constant patterns
of the symmetric sector, the constants are certified as the ground states.
"""

from peierls import (CubePotential, check_symmetry, excited_potts_model,
                     potential_spectrum, potts_model, verify_ground_states)

for model in (potts_model(q=2), potts_model(q=3), excited_potts_model(q=3, s=2)):
    print(f"=== {model.built_in} ===")
    spectrum = potential_spectrum(model)
    print(f"  min cube energy {spectrum.min_energy:g}, gap {spectrum.gap:g}, "
          f"{spectrum.value_count} distinct values")
    report = verify_ground_states(model)
    if report.certified:
        print(f"  certified: ground states are the constants {report.ground_spins}")
    else:
        print(f"  NOT certified; offending patterns: {report.offenders[:3]}")
    print(f"  symmetric under sector permutations: {check_symmetry(model)}")

# a closer look at the two-spin model: every pattern of one cube
model = potts_model(q=2)
pot = CubePotential(model)
print("\ncube patterns of the two-spin model (sites", pot.sites, "):")
seen = {}
import itertools
for pattern in itertools.product((1, 2), repeat=4):
    seen.setdefault(pot.value(pattern), []).append(pattern)
for value in sorted(seen):
    print(f"  energy {value:5.1f}: {len(seen[value]):2d} patterns, "
          f"e.g. {seen[value][0]}")

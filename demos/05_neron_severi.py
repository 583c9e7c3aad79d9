"""
The full divisor class lattice of the smooth model
==================================================

The projective surface carries twelve ordinary double points.  Blowing
them up yields a K3 surface whose Neron-Severi lattice has rank 20, the
maximum possible.  A basis is given by twelve conics and seven
exceptional curves together with a fiber class; everything below is
exact integer linear algebra against that basis.
"""

from zerodiag import cli, nscat
from zerodiag.lattice import reduced_binary_even_forms

G = nscat.ns_lattice()
dec = nscat.decomposition_certificate()
print("rank %d, disc %d" % (len(G), dec.fact("lattice.disc")))

# The lattice splits as U + E8 + E8 + <-2> + <-24> up to finite index;
# the certificate computes each block and the index, and its row in
# `zerodiag ns verify` passes when its own checks and every claim read
# from it hold.
verdict = {row[0]: row[3] for row in cli.claims_report("ns").rows}
print("decomposition certificate:",
      verdict["certificate.lattice.decomposition"])
for key, value in dec.facts:
    print("  %-22s %s" % (key, value))

# Classes of degree 2 and genus 0 are conics on the singular model.
classes = nscat.enumerate_classes(2, 0)
print("\nclasses of degree 2, genus 0:", len(classes))

cat = nscat.catalogue_441()
print("as geometric families:")
print("  conics missing every double point:  %3d"
      % len(cat["families"][0]))
print("  conics through 2 nodes (subsets):   %3d"
      % len(cat["families"][2]))
print("  conics through 4 nodes (subsets):   %3d"
      % len(cat["families"][4]))
print("  strict transforms among them:       %3d"
      % len(cat["strict_transforms"]))

# The reducible fibers of the elliptic fibration, reassembled out of
# catalogued conic and exceptional classes.
decomp = nscat.reconstruct_fiber_classes()
print("\nfiber decompositions (component, multiplicity):")
for place in ("0", "1", "-1", "2", "-2", "inf"):
    parts = ", ".join("%s x%d" % (label, mult)
                      for label, mult, _ in decomp[place])
    print("  t = %-3s %s" % (place, parts))

# The transcendental lattice is the orthogonal complement; its Gram
# matrix is determined among the positive even binary forms of
# determinant 48 by the discriminant form glue.
print("\neven positive binary forms of determinant 48:")
for form in reduced_binary_even_forms(48):
    print("  ", form)
tra = nscat.transcendental_certificate()
print("glue condition selects:", tra.fact("match.opposite_disc_form"))
print("is twice an even form (Kummer test):", tra.fact("kummer.condition"))

"""Mordell-Weil group of the fibration: generators, heights, descent.

Five sections are written down explicitly.  The canonical height
pairing shows two of them are independent of infinite order while two
are torsion, and a small descent argument shows the two generate their
saturation, so the group is Z^2 x (Z/2)^2.
"""

from zerodiag import cli, mwlat
from zerodiag.curve import named_sections, param_to_point

secs = named_sections()
points = {name: param_to_point(par) for name, par in secs.items()}

print("sections on the generic fiber:")
for name in ("O", "P", "Q", "T1", "T2"):
    pt = points[name]
    if pt.is_infinity:
        print("  %-3s the zero section" % name)
    else:
        print("  %-3s u = %s" % (name, pt.u))

# height pairing matrix, exact rationals
names = ["O", "P", "Q", "T1", "T2"]
gram = mwlat.height_gram([points[n] for n in names])
print("\nheight pairing:")
print("      " + "".join("%6s" % n for n in names))
for name, row in zip(names, gram):
    print("  %-3s" % name + "".join("%6s" % v for v in row))

# P and Q span a lattice of discriminant (3/2)(1/2) - 0 = 3/4.  Scaling
# by the torsion order 2 in each variable gives the integer matrix
# diag(6, 2) of determinant 12.  A certificate row of `zerodiag descent`
# passes when the certificate's own checks hold and so does every claim
# read from it.
verdict = {row[0]: row[3] for row in cli.claims_report("descent").rows}
sat = mwlat.saturation_certificate()
print("\nsaturation certificate:", verdict["certificate.saturation"])
for key, value in sat.facts:
    print("  %-25s %s" % (key, value))
for line in sat.imported:
    print("  assumes: %s" % line)

tor = mwlat.torsion_certificate()
print("\ntorsion certificate:", verdict["certificate.torsion"])
print("  order %s, structure %s" % (tor.fact("torsion.order"),
                                    tor.fact("torsion.structure")))

# doubling quadruples the height, a sanity check on the machinery
h2P = mwlat.height_pairing(2 * points["P"])
print("\n<2P, 2P> =", h2P, "= 4 * <P, P> =", 4 * mwlat.height_pairing(points["P"]))

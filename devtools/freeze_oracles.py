"""High-precision oracle values for the frozen test constants.

Run once, paste the printed literals into the test suite.  Everything is
computed with mpmath at 50 digits so the float64 literals in the tests
are correctly rounded.
"""

import mpmath as mp

mp.mp.dps = 50


def show(name, value):
    print(f"{name:34s} = {mp.nstr(value, 20)}  (float: {float(value)!r})")


# Triangle with all sides 1: angle via half-angle form and cos form.
a = b = c = mp.mpf(1)
s = (a + b + c) / 2
cos_alpha = (mp.cosh(a) * mp.cosh(b) - mp.cosh(c)) / (mp.sinh(a) * mp.sinh(b))
alpha = mp.acos(cos_alpha)
show("alpha(1,1,1)", alpha)
show("cos_alpha(1,1,1)", cos_alpha)

area_defect = mp.pi - 3 * alpha
show("area(1,1,1) defect", area_defect)

# Hyperbolic L'Huilier for the same triangle (cross-check).
t = mp.sqrt(mp.tanh(s / 2) * mp.tanh((s - a) / 2) * mp.tanh((s - b) / 2) * mp.tanh((s - c) / 2))
show("area(1,1,1) lhuilier", 4 * mp.atan(t))

# Right-angled hexagon seam for cuffs (2,2,2): alternating sides l/2 = 1.
l1 = l2 = l3 = mp.mpf(2)
num = mp.cosh(l3 / 2) + mp.cosh(l1 / 2) * mp.cosh(l2 / 2)
den = mp.sinh(l1 / 2) * mp.sinh(l2 / 2)
seam222 = mp.acosh(num / den)
show("seam(2,2,2)", seam222)

# Seam for cuffs (1,2,3) and permutations, for asymmetric tests.
for trip in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
    u1, u2, u3 = (mp.mpf(x) for x in trip)
    v = (mp.cosh(u3 / 2) + mp.cosh(u1 / 2) * mp.cosh(u2 / 2)) / (mp.sinh(u1 / 2) * mp.sinh(u2 / 2))
    show(f"seam{trip}", mp.acosh(v))

# Collar width arcsinh(1/sinh(l/2)) at l = 2, and its fixed point.
show("collar(2)", mp.asinh(1 / mp.sinh(1)))
show("collar fixed point l", 2 * mp.asinh(1))
show("arcsinh(1)", mp.asinh(1))

# Midline of the (1,1,1) triangle: cosh mu = (1 + 3 cosh 1)/(4 cosh^2(1/2)).
mu = mp.acosh((1 + 3 * mp.cosh(1)) / (4 * mp.cosh(mp.mpf(1) / 2) ** 2))
show("midline(1,1,1)", mu)

# Report numbers for the default pipeline, n=2, l(gamma)=2, area 4*pi.
n = 2
lgam = mp.mpf(2)
area = 4 * mp.pi
eta = mp.asinh(1 / mp.sinh(1))  # collar term governs for this base
c_eta = 2 / eta
for N in (1, 2, 4, 8, 16):
    h = (n + 1) * lgam / (N * area)
    bound = c_eta * (h + h ** 2)
    print(f"N={N:2d}  h={mp.nstr(h, 17):24s} bound={mp.nstr(bound, 17):24s} "
          f"(float h: {float(h)!r}, bound: {float(bound)!r})")
show("C(eta) for l=2", c_eta)

# Genus-2 area from Gauss-Bonnet.
show("area genus 2", 4 * mp.pi)

# sinh(0.4) < 1 check value used by the ramp-width cap.
show("sinh(0.4)", mp.sinh(mp.mpf(2) / 5))

# Centroid-to-corner distances of the right-angled hexagon with cuffs
# (l1, l2, l3), sides (l1/2, x12, l2/2, x23, l3/2, x31), by a walk in a
# Lorentz frame (columns: point, tangent, normal): boost by S_k along the
# tangent, then turn the tangent by exactly a quarter.
def seam(u1, u2, u3):
    return mp.acosh((mp.cosh(u3 / 2) + mp.cosh(u1 / 2) * mp.cosh(u2 / 2))
                    / (mp.sinh(u1 / 2) * mp.sinh(u2 / 2)))


def minkowski(p, q):
    return p[0] * q[0] - p[1] * q[1] - p[2] * q[2]


for trip in [(2.0, 2.0, 2.0), (0.05, 2.0, 2.0), (15.0, 15.0, 15.0)]:
    u1, u2, u3 = (mp.mpf(x) for x in trip)
    sides = [u1 / 2, seam(u1, u2, u3), u2 / 2, seam(u2, u3, u1), u3 / 2, seam(u3, u1, u2)]
    frame = mp.eye(3)
    corners = []
    for S in sides:
        corners.append(frame[:, 0])
        c, h = mp.cosh(S), mp.sinh(S)
        frame = frame * mp.matrix([[c, 0, -h], [h, 0, -c], [0, 1, 0]])
    closure = mp.mnorm(frame - mp.eye(3), 1)
    total = sum(corners[1:], corners[0])
    centroid = total / mp.sqrt(minkowski(total, total))
    r = [mp.acosh(minkowski(centroid, p)) for p in corners]
    print(f"hexagon r{trip} (walk closes to {mp.nstr(closure, 3)}): "
          f"{[float(x) for x in r]!r}")

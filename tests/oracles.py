"""Independent high-precision oracles for the expected values in the tests.

Everything here is computed with mpmath at 40 digits, straight from the
defining trigonometry, never through the package's own code paths. Tests
compare float64 results from the package against these references.
"""

import mpmath as mp

mp.mp.dps = 40


def _angles(z):
    z = mp.mpf(z)
    return mp.acos(z * z), mp.acos(z)   # (Delta, delta)


def overlap_angles(z) -> tuple[float, float]:
    """(d, D) = (arccos z, arccos z^2)."""
    big, small = _angles(z)
    return float(small), float(big)


def f_bound(z) -> float:
    """Relative-error floor via its trigonometric origin sin(D-d)/sin(D)."""
    big, small = _angles(z)
    if z == 1:
        return float(1 - 1 / mp.sqrt(2))
    return float(mp.sin(big - small) / mp.sin(big))


def deficit(z) -> float:
    """The angle deficit D - d that the optimal machines' error angles share."""
    big, small = _angles(z)
    return float(big - small)


def ae_bound(z) -> float:
    """Absolute-error floor via sin(D - d)."""
    big, small = _angles(z)
    return float(mp.sin(big - small))


def hb_bound(z) -> float:
    z = mp.mpf(z)
    return float(2 * (mp.sqrt(1 + z * (1 - z)) - 1))


def sym_ae(z) -> float:
    """Absolute error of the symmetric machine: 2 sin((D - d)/2)."""
    big, small = _angles(z)
    return float(2 * mp.sin((big - small) / 2))


def sym_re(z) -> float:
    """Relative error of the symmetric machine via angles (not the
    published closed form, so the two routes stay independent)."""
    big, small = _angles(z)
    return float(2 * mp.sin((big - small) / 2) / mp.sin(big))


def wz_x_psi(z) -> float:
    """Error size of the basis copier on psi, from the amplitude algebra.

    q = z^3 f1 + (1 - z^2)^(3/2) f2 along orthonormal machine flags, so
    x^2 = 1 - z^6 - (1 - z^2)^3.
    """
    z = mp.mpf(z)
    return float(mp.sqrt(1 - z ** 6 - (1 - z * z) ** 3))


def wz_re_definition(z) -> float:
    """Definition-faithful relative error of the basis copier."""
    z = mp.mpf(z)
    q1, q2 = z ** 3, (1 - z * z) ** mp.mpf(1.5)
    q_norm = mp.sqrt(q1 ** 2 + q2 ** 2)
    cos_ideal = z * z * q1 / q_norm
    sin_ideal = mp.sqrt(1 - cos_ideal ** 2)
    return float(mp.sqrt(1 - z ** 6 - (1 - z * z) ** 3) / sin_ideal)


def wz_re_quoted(z) -> float:
    """The quoted closed form sqrt(3) z / sqrt(1 + z^2)."""
    z = mp.mpf(z)
    return float(mp.sqrt(3) * z / mp.sqrt(1 + z * z))


def rel_err(value, ref) -> float:
    """|value - ref| / |ref|, or |value| where ref is 0."""
    return abs(value - ref) / abs(ref) if ref else abs(value)


def _unit(v):
    """The components of the vector v, exact, divided by its norm."""
    v = [mp.mpc(x) for x in v]
    n = mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))
    return [x / n for x in v]


def _inner(a, b):
    """<a|b>, conjugate-linear in a."""
    return mp.fsum(mp.conj(x) * y for x, y in zip(a, b))


def angle(a, b):
    """acos |<a|b>| of a and b normalized: the angle between their rays."""
    return mp.acos(min(abs(_inner(_unit(a), _unit(b))), 1))


def lemma1_slack(phi, ups, psi):
    """cos(angle(phi, ups) - angle(ups, psi)) - cos(angle(phi, psi))."""
    return mp.cos(angle(phi, ups) - angle(ups, psi)) - mp.cos(angle(phi, psi))


def lemma2_slack(phi, ups, psi):
    """angle(phi, psi) + angle(ups, psi) - angle(phi, ups)."""
    return angle(phi, psi) + angle(ups, psi) - angle(phi, ups)


def lemma3_slack(theta, phi, psi):
    """sin(angle(phi, psi)) - | |<theta|phi>|^2 - |<theta|psi>|^2 |."""
    theta, phi, psi = _unit(theta), _unit(phi), _unit(psi)
    lhs = abs(abs(_inner(theta, phi)) ** 2 - abs(_inner(theta, psi)) ** 2)
    return mp.sin(angle(phi, psi)) - lhs


def outcome_prob(q, s):
    """sum_r |<q_r|s>|^2 of s normalized, q_r the columns of q as given."""
    s = _unit(s)
    return mp.fsum(abs(_inner([mp.mpc(complex(x)) for x in col], s)) ** 2 for col in q.T)


def gate_bound(theta):
    """eps sqrt(1 - eps^2/4) up to eps = sqrt(2), and 1 beyond, with
    eps = ||U - V|| = max_k |1 - exp(i theta_k)| = 2 max_k |sin(theta_k / 2)|
    for the eigenphases theta_k of U^H V."""
    eps = 2 * max(abs(mp.sin(mp.mpf(float(t)) / 2)) for t in theta)
    return 1 if eps > mp.sqrt(2) else eps * mp.sqrt(1 - eps ** 2 / 4)


def lemma4_slack(phi, psi, q):
    """sin(angle(phi, psi)) - |<phi|P|phi> - <psi|P|psi>|, P onto q's columns."""
    return mp.sin(angle(phi, psi)) - abs(outcome_prob(q, phi) - outcome_prob(q, psi))


def gate_approx_slack(theta, sigma):
    """gate_bound(theta) - sin(angle(sigma, D sigma)), D = diag(exp(i theta)):
    the bound against |P(R | sigma) - P(R | D sigma)| at the projector P that
    parts the two states most."""
    d_sigma = [mp.expj(mp.mpf(float(t))) * mp.mpc(complex(x)) for t, x in zip(theta, sigma)]
    return gate_bound(theta) - mp.sin(angle(sigma, d_sigma))


# Overlaps where float64 forms in z cancel: z = 1 - 10^-k, where 1 - z^4 and
# arccos(z^2) do, z = 10^-k, where differences of terms in z do, and a grid.
NEAR_ONE = [1.0 - 10.0 ** -k for k in range(2, 16)]
NEAR_ZERO = [10.0 ** -k for k in range(2, 16)]
GRID = [i / 100 for i in range(1, 100)]


# Frozen landmark values (40-digit computations rounded to float64).
F_AT_HALF = f_bound("0.5")                    # 0.27639320225002103
AE_BOUND_AT_HALF = ae_bound("0.5")            # 0.26761656732981745 = sqrt(3)(sqrt(5)-1)/8
AE_BOUND_MAX = float(mp.sqrt(mp.mpf(2) / 27))  # 0.2721655269759087 at z = 1/sqrt(3)
HB_MAX = float(mp.sqrt(5) - 2)                # 0.23606797749978969 at z = 1/2
SYM_AE_AT_HALF = sym_ae("0.5")                # 0.27009075673772645
SYM_RE_AT_HALF = sym_re("0.5")                # 0.27894853408260619
F_AT_ONE = float(1 - 1 / mp.sqrt(2))          # 0.29289321881345254
RE_ARGMAX = float(mp.sqrt((mp.sqrt(5) - 1) / 2))  # 0.7861513777574233

"""Global laws of the partition functions.

Uncolored families: normalized Weyl-group invariance.  With

    D1(n, L, z) = prod z_i^L * prod (1 - (q+1) z_i + q z_i / z_i')
    D2(n, L, z) = prod z_i^L

Z(reflecting)/D1 and Z(absorbing)/D2 are invariant under every permutation
of z_1..z_n and under every interchange z_i <-> 1/z_i'.  The generators
act on parameter points: s_i swaps z_i, z_{i+1} and s_n replaces z_n by
1/z_n'.

Signed-colored family: the opposite-boundary closed form (sigma(i) =
-tau(i) forces a unique admissible state), and recursions in sigma along
the generators with coefficients

    A = (1 - z_{i+1})(1 - q z_i) / (z_{i+1} - z_i)
    B = (1 - (q+1) z_i + q z_i z_{i+1}) / (z_{i+1} - z_i)
    C = (q - z_n')(z_n - 1) / (q (1 - z_n z_n'))
    D = (q z_n + z_n' - (q+1) z_n z_n') / (q (1 - z_n z_n'))

The positive-colored family satisfies the s_i recursion with no q-power
prefactor.  Under the change of variables u_i = (1 - q z_i)/(1 - z_i) the
same recursions become the action of divided-difference operators of
type C (dl_apply / check_dl_recursion below), with the quadratic relation
Lhat_i o L_i = v id.

Partition functions are treated as black-box evaluables at parameter
points; operators act by evaluating at transformed points, never
symbolically.  Each law has a ``*_sides`` function returning its two
sides as exact rationals, so a false case can be reported with both
values, and a ``check_*`` wrapper returning whether they are equal.
Hypothesis-violating calls raise UsageError rather than silently
skipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import LatticeSpec, partition_function
from .rationals import ParamPoint
from .weights import Model, UsageError

ONE = Fraction(1)


def _holds(sides: tuple) -> bool:
    lhs, rhs = sides
    return lhs == rhs


# ---------------------------------------------------------------------------
# Normalizers and Weyl action on points
# ---------------------------------------------------------------------------

def d1_normalizer(point: ParamPoint, L: int) -> Fraction:
    """prod z_i^L (1 - (q+1) z_i + q z_i / z_i') -- reflecting normalizer."""
    q = point.q
    val = ONE
    for i in range(1, point.n + 1):
        z, zp = point.z[i - 1], point.zp(i)
        val *= z ** L * (1 - (q + 1) * z + q * z / zp)
    return val


def d2_normalizer(point: ParamPoint, L: int) -> Fraction:
    """prod z_i^L -- absorbing normalizer."""
    val = ONE
    for z in point.z:
        val *= z ** L
    return val


def apply_generator(point: ParamPoint, i: int) -> ParamPoint:
    """s_i z for i < n (swap z_i, z_{i+1}); s_n z replaces z_n by 1/z_n'."""
    if not 1 <= i <= point.n:
        raise UsageError(f"generator index {i} out of range 1..{point.n}")
    if i < point.n:
        return point.swap_z(i, i + 1)
    zp = point.zp(point.n)
    if zp == 0:
        raise UsageError("s_n undefined: z_n' = 0")
    return point.replace_z(point.n, 1 / zp)


def apply_word(point: ParamPoint, word) -> ParamPoint:
    """Apply generators right to left: word (a, b) acts as s_a after s_b."""
    for i in reversed(tuple(word)):
        point = apply_generator(point, i)
    return point


# ---------------------------------------------------------------------------
# Uncolored functional equations
# ---------------------------------------------------------------------------

def permutation_invariance_sides(spec: LatticeSpec, i: int) -> tuple:
    """(Z(z), Z(s_i z)) for an adjacent transposition, any uncolored family."""
    if not 1 <= i <= spec.n - 1:
        raise UsageError("transposition index must satisfy 1 <= i <= n-1")
    swapped = spec.with_point(spec.point.swap_z(i, i + 1))
    return partition_function(spec), partition_function(swapped)


def check_permutation_invariance(spec: LatticeSpec, i: int) -> bool:
    """Z(z) = Z(s_i z) for adjacent transpositions, any uncolored family."""
    return _holds(permutation_invariance_sides(spec, i))


def interchange_factor(model: Model, point: ParamPoint, L: int) -> Fraction:
    """The exact ratio Z(s_n z)/Z(z) for the uncolored families."""
    q = point.q
    zn, zpn = point.z[-1], point.zp(point.n)
    base = (1 / (zn * zpn)) ** L
    if model is Model.UNCOLORED_ABSORBING:
        return base
    num = 1 - (q + 1) / zpn + q * zn / zpn
    den = 1 - (q + 1) * zn + q * zn / zpn
    return base * num / den


def interchange_sides(spec: LatticeSpec) -> tuple:
    """(Z(s_n z), interchange_factor * Z(z))."""
    if spec.model.colored:
        raise UsageError("interchange law stated for the uncolored families")
    moved = spec.with_point(apply_generator(spec.point, spec.n))
    lhs = partition_function(moved)
    rhs = interchange_factor(spec.model, spec.point, spec.L) * partition_function(spec)
    return lhs, rhs


def check_interchange(spec: LatticeSpec) -> bool:
    """Z(s_n z) equals interchange_factor * Z(z)."""
    return _holds(interchange_sides(spec))


def weyl_invariance_sides(spec: LatticeSpec, word) -> tuple:
    """(Z/D at the moved point, Z/D at the point), D = D1 reflecting, D2 absorbing."""
    if spec.model.colored:
        raise UsageError("normalized invariance stated for the uncolored families")
    norm = d1_normalizer if spec.model is Model.UNCOLORED_REFLECTING else d2_normalizer
    moved_point = apply_word(spec.point, word)
    lhs = partition_function(spec.with_point(moved_point)) / norm(moved_point, spec.L)
    rhs = partition_function(spec) / norm(spec.point, spec.L)
    return lhs, rhs


def check_weyl_invariance(spec: LatticeSpec, word) -> bool:
    """Z/D is invariant under the Weyl word (D = D1 reflecting, D2 absorbing)."""
    return _holds(weyl_invariance_sides(spec, word))


# ---------------------------------------------------------------------------
# Signed-colored closed form (opposite boundary colors)
# ---------------------------------------------------------------------------

def closed_form_opposite(spec: LatticeSpec) -> Fraction:
    """Product formula for the signed family when sigma(i) = -tau(i) for all i.

    The boundary forces a unique admissible state; its weight is

        prod z_i^L (z_i'/q)^(lambda_i + n - i) (1 - q^{-[sigma(i)<0]} z_i')
        * q^(sum_i (L - n + i + lambda_i) [sigma(i)>0]
             + sum_{i<j} ([-sigma(j) < sigma(i)] + [sigma(j) < sigma(i)]))
    """
    if spec.model is not Model.COLORED_SIGNED:
        raise UsageError("closed form applies to the signed-colored family")
    n, L, q = spec.n, spec.L, spec.point.q
    sig, tau = spec.sigma, spec.tau
    if any(sig(i) != -tau(i) for i in range(1, n + 1)):
        raise UsageError("closed form requires sigma(i) = -tau(i) for every i")
    val = ONE
    for i in range(1, n + 1):
        z, zp = spec.point.z[i - 1], spec.point.zp(i)
        val *= z ** L * (zp / q) ** (spec.lam.parts[i - 1] + n - i)
        val *= (1 - zp / q) if sig(i) < 0 else (1 - zp)
    exponent = 0
    for i in range(1, n + 1):
        if sig(i) > 0:
            exponent += L - n + i + spec.lam.parts[i - 1]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if -sig(j) < sig(i):
                exponent += 1
            if sig(j) < sig(i):
                exponent += 1
    return val * q ** exponent


def closed_form_sides(spec: LatticeSpec) -> tuple:
    """(closed_form_opposite, Z) for sigma(i) = -tau(i)."""
    return closed_form_opposite(spec), partition_function(spec)


# ---------------------------------------------------------------------------
# Colored recursions
# ---------------------------------------------------------------------------

def recursion_A(point: ParamPoint, i: int) -> Fraction:
    zi, zi1 = point.z[i - 1], point.z[i]
    return (1 - zi1) * (1 - point.q * zi) / (zi1 - zi)


def recursion_B(point: ParamPoint, i: int) -> Fraction:
    zi, zi1 = point.z[i - 1], point.z[i]
    q = point.q
    return (1 - (q + 1) * zi + q * zi * zi1) / (zi1 - zi)


def recursion_C(point: ParamPoint) -> Fraction:
    q = point.q
    zn, zpn = point.z[-1], point.zp(point.n)
    return (q - zpn) * (zn - 1) / (q * (1 - zn * zpn))


def recursion_D(point: ParamPoint) -> Fraction:
    q = point.q
    zn, zpn = point.z[-1], point.zp(point.n)
    return (q * zn + zpn - (q + 1) * zn * zpn) / (q * (1 - zn * zpn))


def recursion_si_sides(spec: LatticeSpec, i: int) -> tuple:
    """Both sides of the recursion along s_i, 1 <= i <= n-1, requiring
    sigma(i+1) > sigma(i).

    Signed family:  q^([sigma(i+1)>0] - [sigma(i)>0]) Z(sigma s_i; z)
                      = -A Z(sigma; z) + B Z(sigma; s_i z)
    Positive family: the same with unit prefactor.
    """
    if not spec.model.colored:
        raise UsageError("recursions apply to the colored families")
    if not 1 <= i <= spec.n - 1:
        raise UsageError("need 1 <= i <= n-1")
    sig = spec.sigma
    if not sig(i + 1) > sig(i):
        raise UsageError(f"hypothesis sigma({i+1}) > sigma({i}) violated")
    q = spec.point.q
    if spec.model is Model.COLORED_SIGNED:
        prefactor = q ** ((1 if sig(i + 1) > 0 else 0) - (1 if sig(i) > 0 else 0))
    else:
        prefactor = ONE
    lhs = prefactor * partition_function(spec.with_sigma(sig.times_s(i)))
    rhs = (-recursion_A(spec.point, i) * partition_function(spec)
           + recursion_B(spec.point, i)
           * partition_function(spec.with_point(spec.point.swap_z(i, i + 1))))
    return lhs, rhs


def check_recursion_si(spec: LatticeSpec, i: int) -> bool:
    """The recursion along s_i holds (see ``recursion_si_sides``)."""
    return _holds(recursion_si_sides(spec, i))


def recursion_sn_sides(spec: LatticeSpec) -> tuple:
    """Both sides of the recursion along s_n for the signed family,
    requiring sigma(n) > 0:

        (q/z_n)^L Z(sigma s_n; z) = C z_n^{-L} Z(sigma; z)
                                    - D z_n'^L Z(sigma; s_n z).
    """
    if spec.model is not Model.COLORED_SIGNED:
        raise UsageError("the s_n recursion is stated for the signed family")
    sig = spec.sigma
    if not sig(spec.n) > 0:
        raise UsageError("hypothesis sigma(n) > 0 violated")
    point = spec.point
    q = point.q
    zn, zpn = point.z[-1], point.zp(spec.n)
    if 1 - zn * zpn == 0:
        raise UsageError("singular: 1 - z_n z_n' = 0")
    L = spec.L
    lhs = (q / zn) ** L * partition_function(spec.with_sigma(sig.times_s(spec.n)))
    moved = spec.with_point(apply_generator(point, spec.n))
    rhs = (recursion_C(point) * zn ** (-L) * partition_function(spec)
           - recursion_D(point) * zpn ** L * partition_function(moved))
    return lhs, rhs


def check_recursion_sn(spec: LatticeSpec) -> bool:
    """The recursion along s_n holds (see ``recursion_sn_sides``)."""
    return _holds(recursion_sn_sides(spec))


# ---------------------------------------------------------------------------
# Divided-difference operators in the u variables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UPoint:
    """A point u_1..u_n for the operator calculus, with parameter v."""

    u: tuple
    v: Fraction

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(Fraction(x) for x in self.u))
        object.__setattr__(self, "v", Fraction(self.v))

    @property
    def n(self) -> int:
        return len(self.u)


def u_from_z(point: ParamPoint) -> tuple:
    """u_i = (1 - q z_i)/(1 - z_i); requires z_i != 1."""
    if any(z == 1 for z in point.z):
        raise UsageError("u undefined at z_i = 1")
    return tuple((1 - point.q * z) / (1 - z) for z in point.z)


def z_from_u(u, q) -> ParamPoint:
    """Inverse change of variables z_i = (1 - u_i)/(q - u_i)."""
    z = []
    for x in u:
        if x == q:
            raise UsageError("z undefined at u_i = q")
        z.append((1 - Fraction(x)) / (q - Fraction(x)))
    return ParamPoint(tuple(z), q)


def s_on_u(u, i: int) -> tuple:
    """s_i swaps u_i, u_{i+1}; s_n inverts u_n."""
    u = list(u)
    if i == len(u):
        if u[-1] == 0:
            raise UsageError("s_n undefined at u_n = 0")
        u[-1] = 1 / u[-1]
    else:
        u[i - 1], u[i] = u[i], u[i - 1]
    return tuple(u)


def _root_monomial(u, i: int) -> Fraction:
    """u^{alpha_i}: u_i/u_{i+1} for i < n and u_n^2 for i = n."""
    if i == len(u):
        return u[-1] ** 2
    return u[i - 1] / u[i]


def dl_apply(kind: str, i: int, point: UPoint, f) -> Fraction:
    """Apply a divided-difference operator to the evaluable f at the point.

        L_i(f)    = (1-v)/(u^a - 1) f + (v u^a - 1)/(u^a - 1) f(s_i u)
        Lhat_i(f) = L_i(f) - (v - 1) f

    where a is the i-th simple root of type C.  f maps a u-tuple to an
    exact rational.  Raises at u^a = 1.
    """
    if kind not in ("L", "Lhat"):
        raise UsageError(f"kind must be 'L' or 'Lhat', got {kind!r}")
    if not 1 <= i <= point.n:
        raise UsageError("operator index out of range")
    ua = _root_monomial(point.u, i)
    if ua == 1:
        raise UsageError("singular: u^alpha = 1")
    v = point.v
    at_u = f(point.u)
    val = ((1 - v) / (ua - 1)) * at_u + ((v * ua - 1) / (ua - 1)) * f(s_on_u(point.u, i))
    if kind == "Lhat":
        val -= (v - 1) * at_u
    return val


def ztilde(spec: LatticeSpec, u) -> Fraction:
    """The normalized partition function as a function of u:

        Ztilde(sigma; u) = Z(sigma; z(u))
            * q^(sum_i (n-i)[sigma(i)>0] + (L+1) sum_i [sigma(i)<0])
            / prod z_i(u)^L.
    """
    if spec.model is not Model.COLORED_SIGNED:
        raise UsageError("the u-variable normalization is for the signed family")
    q = spec.point.q
    point = z_from_u(u, q)
    n, L = spec.n, spec.L
    sig = spec.sigma
    exponent = sum((n - i) for i in range(1, n + 1) if sig(i) > 0) \
        + (L + 1) * sum(1 for i in range(1, n + 1) if sig(i) < 0)
    denom = ONE
    for z in point.z:
        denom *= z ** L
    return partition_function(spec.with_point(point)) * q ** exponent / denom


def dl_recursion_sides(spec: LatticeSpec, i: int) -> tuple:
    """Both sides of the operator form of the recursions at the spec's own point:

        Ztilde(sigma s_i; u) = Lhat_{i,q}(Ztilde(sigma; .))(u)   (i < n)
        Ztilde(sigma s_n; u) = -L_{n,q}(Ztilde(sigma; .))(u)

    with hypotheses sigma(i+1) > sigma(i), resp. sigma(n) > 0.
    """
    if spec.model is not Model.COLORED_SIGNED:
        raise UsageError("the operator recursion is for the signed family")
    sig = spec.sigma
    if i < spec.n and not sig(i + 1) > sig(i):
        raise UsageError(f"hypothesis sigma({i+1}) > sigma({i}) violated")
    if i == spec.n and not sig(spec.n) > 0:
        raise UsageError("hypothesis sigma(n) > 0 violated")
    q = spec.point.q
    u = u_from_z(spec.point)
    upoint = UPoint(u, q)
    f = lambda uu: ztilde(spec, uu)
    lhs = ztilde(spec.with_sigma(sig.times_s(i)), u)
    if i < spec.n:
        rhs = dl_apply("Lhat", i, upoint, f)
    else:
        rhs = -dl_apply("L", i, upoint, f)
    return lhs, rhs


def check_dl_recursion(spec: LatticeSpec, i: int) -> bool:
    """The operator form of the recursions holds (see ``dl_recursion_sides``)."""
    return _holds(dl_recursion_sides(spec, i))


def u_coefficient_sides(point: ParamPoint) -> list:
    """(name, coefficient, its u form) for A, B, C, D in u variables:

        A = (q-1) u_i / (u_i - u_{i+1})      B = (q u_i - u_{i+1}) / (u_i - u_{i+1})
        C = (1-q) / (q (1 - u_n^2))          D = (1 - q u_n^2) / (q (1 - u_n^2))
    """
    q = point.q
    u = u_from_z(point)
    sides = []
    for i in range(1, point.n):
        sides.append((f"A_{i}", recursion_A(point, i), (q - 1) * u[i - 1] / (u[i - 1] - u[i])))
        sides.append((f"B_{i}", recursion_B(point, i), (q * u[i - 1] - u[i]) / (u[i - 1] - u[i])))
    un2 = u[-1] ** 2
    sides.append(("C", recursion_C(point), (1 - q) / (q * (1 - un2))))
    sides.append(("D", recursion_D(point), (1 - q * un2) / (q * (1 - un2))))
    return sides


def u_coefficient_identities(point: ParamPoint) -> bool:
    """Every identity of ``u_coefficient_sides`` holds."""
    return all(lhs == rhs for _, lhs, rhs in u_coefficient_sides(point))

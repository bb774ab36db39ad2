"""Number fields as tuples of completed L-factors, plus the arithmetic built on them.

A field is the tuple of the Dirichlet L-factors that multiply to its zeta
function, which gives zeta_F on the whole plane; each holds its primitive
character, Gamma_R shift, conductor and root number.  This module owns
character arithmetic, the coefficient tables a(n) / a_k(n) / mu_k(n), the
residue constant at s=1 and the leading Laurent constant at s=0, and the
completed-zeta prefactors and their Taylor jets.  One Euler-product sieve
builds all three tables: each prime p contributes its Euler factor
P_p(T) = prod_chi (1 - chi(p) T), and c(p^e) is the T^e coefficient of
P_p^(-k) for a_k or of P_p^k for mu_k.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    ParseError,
    RoundingDriftError,
    SignCheckError,
    ValidationError,
)


def kronecker(a, n):
    """Kronecker symbol (a/n) by quadratic-reciprocity recursion, exact."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -t
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                t = -t
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod q encoded by root-of-unity exponents.

    exponents[a] = e means chi(a) = exp(2 pi i e / order) for the residue a,
    and e = -1 marks chi(a) = 0 (gcd(a, q) > 1).
    """
    modulus: int
    order: int
    exponents: tuple

    def __post_init__(self):
        q, m = self.modulus, self.order
        if q < 1 or m < 1:
            raise ValidationError("modulus and order must be positive")
        if len(self.exponents) != q:
            raise ValidationError("exponent table must have length q")
        for a, e in enumerate(self.exponents):
            coprime = math.gcd(a, q) == 1
            if coprime and not (0 <= e < m):
                raise ValidationError(f"exponent out of range at residue {a}")
            if not coprime and e != -1:
                raise ValidationError(f"residue {a} shares a factor with q but is not zeroed")
        if self.exponents[1 % q] != 0:
            raise ValidationError("chi(1) must be 1")
        # chi(a b) = chi(a) chi(b) for all units once it holds for each b of a generating
        # set, by induction on word length; each b taken at least doubles their span
        units, span = [a for a, e in enumerate(self.exponents) if e >= 0], {1 % q}
        for b in units:
            if b in span:
                continue
            for a in units:
                if (self.exponents[a] + self.exponents[b] - self.exponents[a * b % q]) % m:
                    raise ValidationError(f"chi({b}) chi({a}) != chi({a * b % q}): not a character")
            grown, coset = set(span), span
            while (coset := {a * b % q for a in coset}).isdisjoint(span):
                grown |= coset
            span = grown

    def _root_of_unity(self, e):
        if e < 0:
            return 0j
        if e == 0:
            return 1 + 0j
        if 2 * e == self.order:
            return -1 + 0j
        return cmath.exp(2j * math.pi * e / self.order)

    @functools.cached_property
    def _residues(self):
        """chi(a) for the residues a = 0 .. q-1, built once per character."""
        return tuple(self._root_of_unity(e) for e in self.exponents)

    def value(self, n):
        return self._residues[n % self.modulus]

    def values_at(self, ns):
        """chi(n) for each n of the integer array ns, as a complex array."""
        return np.array(self._residues)[np.asarray(ns) % self.modulus]

    @property
    def is_principal(self):
        return all(e <= 0 for e in self.exponents)

    @property
    def is_odd(self):
        e = self.exponents[(self.modulus - 1) % self.modulus]
        return e >= 0 and 2 * e == self.order

    def conjugate(self):
        m = self.order
        exps = tuple(e if e <= 0 else m - e for e in self.exponents)
        return DirichletCharacter(self.modulus, m, exps)

    def primitive(self):
        """The primitive character inducing this one (_primitive_key)."""
        key = _primitive_key(*self.key)
        return self if key == self.key else DirichletCharacter(*key)

    @property
    def key(self):
        return (self.modulus, self.order, self.exponents)


def _primitive_key(q, m, exponents):
    """(conductor, order, exponents) of the primitive character inducing the character mod q, in one pass.

    The conductor is the least divisor f of q on whose classes the values at the units mod q
    are constant; the order is m reduced by the exponents' gcd (the principal character: 1).
    """
    units = [(a, e) for a, e in enumerate(exponents) if e >= 0]
    for f in (f for f in range(1, q + 1) if q % f == 0):
        exps = [-1] * f
        for a, e in units:
            if exps[a % f] not in (-1, e):
                break
            exps[a % f] = e
        else:
            g = math.gcd(m, *(max(e, 0) for e in exps))
            return f, m // g, tuple(e // g for e in exps)   # -1 // g == -1


def principal_character(q=1):
    exps = tuple(0 if math.gcd(a, q) == 1 else -1 for a in range(q))
    return DirichletCharacter(q, 1, exps)


def kronecker_character(D):
    """Quadratic character n -> (D/n) as a character mod |D|."""
    q = abs(D)
    exps = []
    for a in range(q):
        v = kronecker(D, a)
        exps.append(-1 if v == 0 else (0 if v == 1 else 1))
    return DirichletCharacter(q, 2, tuple(exps))


def character_from_exponents(q, m, exps_1_to_q):
    """Build from the file convention: exponents listed for a = 1..q."""
    exps = [0] * q
    for a1, e in enumerate(exps_1_to_q, start=1):
        exps[a1 % q] = e
    return DirichletCharacter(q, m, tuple(exps))


def parse_character_file(path):
    """Parse `char <q> <m> <e_1>,...,<e_q>` lines; `#` starts a comment."""
    chars = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "char" or len(parts) != 4:
                raise ParseError("expected `char <q> <m> <e_1>,...,<e_q>`", line=lineno)
            try:
                q, m = int(parts[1]), int(parts[2])
                exps = [int(tok) for tok in parts[3].split(",")]
            except ValueError as exc:
                raise ParseError(f"bad integer: {exc}", line=lineno) from None
            if len(exps) != q:
                raise ParseError(f"expected {q} exponents, got {len(exps)}", line=lineno)
            try:
                chars.append(character_from_exponents(q, m, exps))
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if not chars:
        raise ParseError("no characters in file")
    return chars


@dataclass(frozen=True)
class LFactor:
    """Lambda(s, chi) = (q/pi)^((s + a)/2) Gamma((s + a)/2) L(s, chi) = root_number Lambda(1 - s, conj chi).

    chi is primitive mod the conductor q, its Gamma_R shift a is 1 if chi is
    odd and 0 if even, and root_number = tau(chi)/(i^a sqrt q) with the Gauss
    sum tau(chi) = sum_b chi(b) e^(2 pi i b/q) (Davenport, Multiplicative Number Theory, ch. 9).
    """
    character: DirichletCharacter
    shift: int
    conductor: int
    root_number: complex


def _l_factor(character):
    """The LFactor of the primitive character inducing `character`; each Gauss-sum term is one exp."""
    chi = character.primitive()
    q, a, turn = chi.modulus, int(chi.is_odd), chi.modulus * chi.order
    # chi(b) e^(2 pi i b/q) = e^(2 pi i k/turn), k = e q + b m reduced to |k| <= turn/2
    terms = [cmath.exp(2j * math.pi * ((e * q + b * chi.order + turn // 2) % turn - turn // 2) / turn)
             for b, e in enumerate(chi.exponents) if e >= 0]
    tau = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return LFactor(chi, a, q, tau / (1j ** a * math.sqrt(q)))


@dataclass(frozen=True, eq=False)
class FieldDescriptor:
    """A number field as its completed L-factors, and what is read off them once, when it is built.

    r1 = #{a = 0} - #{a = 1} and r2 = #{a = 1} over the Gamma_R shifts a, the
    degree is the number of factors, |disc| the product of their conductors
    (the conductor-discriminant formula), and `characters`, `unit_rank` and
    the memo's `cache_key` follow.
    """
    factors: tuple
    label: str = ""

    def __post_init__(self):
        # written to the instance dict, as functools.cached_property does past the frozen __setattr__
        chars, r2 = tuple(f.character for f in self.factors), sum(f.shift for f in self.factors)
        r1, disc = len(chars) - 2 * r2, math.prod(f.conductor for f in self.factors)
        vars(self).update(characters=chars, r1=r1, r2=r2, degree=len(chars), disc=disc, unit_rank=r1 + r2 - 1,
                          cache_key=(r1, r2, disc, tuple(c.key for c in chars)))

    def __repr__(self):
        return (f"FieldDescriptor({self.label or '?'}: d={self.degree}, "
                f"r1={self.r1}, r2={self.r2}, D={self.disc})")


def make_field_abelian(characters, label=""):
    """The field of a character list, one LFactor per character.

    The primitive characters must be distinct and the primitive of every
    product chi psi must be among them: a finite group of characters, the
    character group of an abelian field (Washington, Introduction to
    Cyclotomic Fields, ch. 3).  So the principal character appears once, the
    list is closed under conjugation, and the odd characters are none or half.
    """
    field = FieldDescriptor(tuple(_l_factor(c) for c in characters), label)
    chars, keys = field.characters, {c.key for c in field.characters}
    if not chars or len(keys) < len(chars):
        raise ValidationError(f"the character list {'repeats a character' if chars else 'is empty'}")
    for i, chi in enumerate(chars):
        for j, psi in enumerate(chars[i:], start=i):
            # chi psi mod the lcm of the moduli, with exponents to the lcm of the orders
            q, m = math.lcm(chi.modulus, psi.modulus), math.lcm(chi.order, psi.order)
            pairs = ((chi.exponents[a % chi.modulus], psi.exponents[a % psi.modulus]) for a in range(q))
            exps = tuple(-1 if min(e, f) < 0 else (e * (m // chi.order) + f * (m // psi.order)) % m for e, f in pairs)
            if _primitive_key(q, m, exps) not in keys:
                raise ValidationError(f"the characters are not a group: the product of entries "
                                      f"{i + 1} and {j + 1} is not in the list")
    return field


def _cubic7_characters():
    # (Z/7)* = <3>; the two order-3 characters are even.
    chi = character_from_exponents(7, 3, [0, 2, 1, 1, 2, 0, -1])
    return (principal_character(), chi, chi.conjugate())


def _zeta5_characters():
    # (Z/5)* = <2>; chi(2) = i gives the full dual group of Q(zeta_5).
    chi = character_from_exponents(5, 4, [0, 1, 3, 2, -1])
    return (principal_character(), chi, chi.conjugate(),
            character_from_exponents(5, 2, [0, 1, 1, 0, -1]))


_BUILTIN_FIELDS = {
    "Q": lambda: make_field_abelian([principal_character()], label="Q"),
    "sqrt5": lambda: make_field_abelian(
        [principal_character(), kronecker_character(5)], label="Q(sqrt5)"),
    "cubic7": lambda: make_field_abelian(_cubic7_characters(), label="cubic7"),
    "zeta5": lambda: make_field_abelian(_zeta5_characters(), label="Q(zeta5)"),
    "gauss": lambda: make_field_abelian(
        [principal_character(), kronecker_character(-4)], label="Q(i)"),
}

def builtin_field(name):
    """Named test fields: Q, sqrt5, cubic7, zeta5, gauss."""
    if name not in _BUILTIN_FIELDS:
        raise ValidationError(f"unknown builtin field {name!r}; "
                              f"choices: {sorted(_BUILTIN_FIELDS)}")
    return numerics.memo(("builtin_field", name), _BUILTIN_FIELDS[name])


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """values[n] for 1 <= n <= N: a_{F,k}(n) or mu_{F,k}(n)."""
    values: np.ndarray

    def __getitem__(self, n):
        return int(self.values[n])


def _primes_upto(n_max):
    """The primes p <= n_max, ascending, by Eratosthenes' sieve."""
    prime = np.ones(n_max + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n_max) + 1):
        if prime[p]:
            prime[p * p::p] = False
    return np.flatnonzero(prime)


def _series_power(poly, power, length):
    """poly(T)^power to T^(length - 1) for an integer list poly with poly[0] = 1, exact.

    Miller's recurrence e c_e = sum_{j <= min(e, deg)} ((power + 1) j - e) poly_j c_{e-j}
    holds for every integer power, and the division by e is exact.
    """
    c = [1]
    for e in range(1, length):
        c.append(sum(((power + 1) * j - e) * poly[j] * c[e - j]
                     for j in range(1, min(e, len(poly) - 1) + 1)) // e)
    return c


def _euler_table(field, power, n_max):
    """c(n) for n <= n_max, the Dirichlet coefficients of zeta_F^(-power), in int64.

    c is multiplicative and c(p^e) is the T^e coefficient of P_p(T)^power, where
    P_p(T) = prod_chi (1 - chi(p) T) is the Euler factor at p: power = -k gives
    a_{F,k} and power = k gives mu_{F,k}.  RoundingDriftError names the prime p
    where P_p's coefficients drift beyond 1e-6 from integers or, whatever the
    power, an a_F(p^e) with p^e <= n_max is negative.  A prime p <= sqrt(n_max)
    multiplies its multiples by c(p^e) in one slice; a larger prime meets only
    c(p) = power P_p'(0), gathered once per cofactor m.
    """
    primes = _primes_upto(n_max)
    poly = np.zeros((len(primes), len(field.factors) + 1), dtype=complex)
    poly[:, 0] = 1
    for factor in field.factors:
        poly[:, 1:] -= factor.character.values_at(primes)[:, None] * poly[:, :-1]
    exact = np.round(poly.real)
    drift = np.abs(poly - exact).max(axis=1)
    bad = np.flatnonzero(drift > 1e-6)
    if bad.size:
        raise RoundingDriftError(f"the Euler factor at p = {primes[bad[0]]} drifted "
                                 f"{drift[bad[0]]:.2e} from integers")
    poly = exact.astype(np.int64)
    vals = np.ones(n_max + 1, dtype=np.int64)
    vals[0] = 0
    n_small = int(np.searchsorted(primes, math.isqrt(n_max), side="right"))
    scratch = np.empty(n_max // 2 + 1, dtype=np.int64)
    for p, row in zip(primes[:n_small].tolist(), poly[:n_small].tolist()):
        powers = [p]
        while powers[-1] * p <= n_max:
            powers.append(powers[-1] * p)
        ideal = _series_power(row, -1, len(powers) + 1)
        if min(ideal) < 0:
            raise RoundingDriftError(f"negative ideal count at a power of p = {p}")
        local = ideal if power == -1 else _series_power(row, power, len(powers) + 1)
        w = scratch[:n_max // p + 1]
        w[:] = local[1]
        for e, q in enumerate(powers[:-1], start=2):
            w[q::q] = local[e]          # the multiples p j with p^(e-1) | j
        vals[p::p] *= w[1:]
    large, c_large = primes[n_small:], power * poly[n_small:, 1]
    if np.any(poly[n_small:, 1] > 0):
        raise RoundingDriftError(
            f"negative ideal count at p = {large[np.argmax(poly[n_small:, 1] > 0)]}")
    # n = m p with p large has m < sqrt(n_max) < p, so c(n) = c(m) c(p) with c(m) final
    m_max = n_max // (math.isqrt(n_max) + 1)
    tops = np.searchsorted(large, n_max // np.arange(1, m_max + 1), side="right").tolist()
    for m, top, c_m in zip(range(1, m_max + 1), tops, vals[1:m_max + 1].tolist()):
        if c_m:
            vals[m * large[:top]] = c_m * c_large[:top]
    return vals


def ideal_coeffs(field, n_max):
    """a_F(n) for n <= n_max, the number of integral ideals of norm n: zeta_F's own coefficients."""
    return numerics.memo(("ideal_coeffs", field.cache_key, n_max),
                         lambda: CoefficientTable(values=_euler_table(field, -1, n_max)))


def require_k(k):
    """ValidationError unless the power k of zeta_F is at least 1."""
    if k < 1:
        raise ValidationError("k must be >= 1")


def power_coeffs(field, k, n_max):
    """a_{F,k}(n) for n <= n_max: the coefficients of zeta_F^k."""
    require_k(k)
    if k == 1:
        return ideal_coeffs(field, n_max)
    return numerics.memo(("power_coeffs", field.cache_key, k, n_max),
                         lambda: CoefficientTable(values=_euler_table(field, -k, n_max)))


def moebius_coeffs(field, k, n_max):
    """mu_{F,k}(n) for n <= n_max: the coefficients of 1/zeta_F^k, the Dirichlet inverse of a_{F,k}."""
    require_k(k)
    return numerics.memo(("moebius_coeffs", field.cache_key, k, n_max),
                         lambda: CoefficientTable(values=_euler_table(field, k, n_max)))


# ---------------------------------------------------------------------------
# field constants and completed-zeta prefactors
# ---------------------------------------------------------------------------

def residue_constant(field):
    """H_F = lim_{s->1} (s-1) zeta_F(s) = prod over non-principal chi of L(1, chi)."""
    return numerics.memo(("residue_constant", field.cache_key), lambda: _residue_constant(field))


def _residue_constant(field):
    h = math.prod(numerics.dirichlet_l(1.0, f.character) for f in field.factors if f.conductor > 1)
    if abs(h.imag) > 1e-9 * abs(h.real):
        raise RoundingDriftError(f"H_F came out non-real: {h}")
    h = float(h.real)
    if h <= 0:
        raise SignCheckError(f"H_F must be positive, got {h}")
    return h


def laurent_constant(field):
    """C_F = lim_{s->0} zeta_F(s)/s^r, the leading coefficient of zeta_F's jet about 0; negative."""
    return numerics.memo(("laurent_constant", field.cache_key), lambda: _laurent_constant(field))


def _laurent_constant(field):
    c = complex(numerics.dedekind_zeta_jet(field, [0.0], 1).coeffs[0, 0])
    if abs(c.imag) > 1e-9 * max(abs(c.real), 1e-30):
        raise RoundingDriftError(f"C_F came out non-real: {c}")
    c = float(c.real)
    if c >= 0:
        raise SignCheckError(f"C_F must be negative, got {c}")
    return c


def kernel_scale(field, k=1):
    """2^{k r2} pi^{k d/2} / D^{k/2}; the theta sums evaluate their kernels at scale * n * sqrt(x)."""
    return 2.0 ** (k * field.r2) * math.pi ** (k * field.degree / 2.0) / field.disc ** (k / 2.0)


def half_log_q(field):
    """(1/2) log q, q = D/(4^r2 pi^d): the prefactor q^{s/2} is exp(s half_log_q)."""
    return 0.5 * math.log(field.disc / (4.0 ** field.r2 * math.pi ** field.degree))


def prefactor_jet(field, centres, sign, count):
    """numerics.gamma_factor_jet of q^{s/2} Gamma^{r1}(s/2) Gamma^{r2}(s) about each s = s0 + sign e."""
    return numerics.gamma_factor_jet(field.r1, field.r2, centres, sign, count, half_log_q(field))

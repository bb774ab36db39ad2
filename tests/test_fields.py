import itertools
import math
import re
import time
import types

import numpy as np
import pytest

from zetatheta import fields as fd
from zetatheta import numerics as nx
from zetatheta.errors import ParseError, RoundingDriftError, ValidationError

import _oracles as oracle


class TestKronecker:
    def test_against_euler_criterion(self):
        rng = np.random.RandomState(5)
        for p in [3, 5, 7, 11, 13, 101, 997]:
            for _ in range(20):
                a = int(rng.randint(0, 5 * p))
                legendre = pow(a, (p - 1) // 2, p)
                legendre = 0 if legendre == 0 else (1 if legendre == 1 else -1)
                assert fd.kronecker(a, p) == legendre

    def test_even_modulus_values(self):
        # (a/2) = 0 if a even, 1 if a = +-1 mod 8, -1 if a = +-3 mod 8
        assert fd.kronecker(7, 2) == 1
        assert fd.kronecker(3, 2) == -1
        assert fd.kronecker(4, 2) == 0
        assert fd.kronecker(-4, 3) == fd.kronecker(-1, 3)

    def test_multiplicativity(self):
        rng = np.random.RandomState(6)
        for _ in range(50):
            a = int(rng.randint(-30, 30))
            m, n = int(rng.randint(1, 40)), int(rng.randint(1, 40))
            assert fd.kronecker(a, m * n) == fd.kronecker(a, m) * fd.kronecker(a, n)


class TestDirichletCharacter:
    def test_principal(self):
        chi = fd.principal_character()
        assert chi.modulus == 1
        assert chi.value(17) == 1
        assert chi.is_principal and not chi.is_odd
        assert chi.primitive().modulus == 1

    def test_kronecker_mod5(self):
        chi = fd.kronecker_character(5)
        vals = [chi.value(n).real for n in range(1, 6)]
        assert vals == [1, -1, -1, 1, 0]
        assert not chi.is_odd
        assert chi.primitive().modulus == 5
        assert chi.conjugate() == chi

    def test_odd_character(self):
        chi = fd.kronecker_character(-4)
        assert chi.is_odd
        assert chi.value(3) == -1
        assert chi.value(2) == 0

    def test_cubic_conjugate_values(self, field_cubic7):
        chi = field_cubic7.characters[1]
        w = chi.value(3)
        assert abs(w - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15
        assert abs(chi.conjugate().value(3) - w.conjugate()) < 1e-15
        # complete multiplicativity on residues
        for a in range(1, 7):
            for b in range(1, 7):
                assert abs(chi.value(a * b) - chi.value(a) * chi.value(b)) < 1e-14

    def test_conductor_of_imprimitive(self):
        # Legendre mod 5 lifted to modulus 10
        base = fd.kronecker_character(5)
        exps = []
        for a in range(10):
            if math.gcd(a, 10) != 1:
                exps.append(-1)
            else:
                exps.append(base.exponents[a % 5])
        lifted = fd.DirichletCharacter(10, 2, tuple(exps))
        assert lifted.primitive().modulus == 5
        assert lifted.primitive() == base

    def test_validation(self):
        with pytest.raises(ValidationError):
            fd.DirichletCharacter(4, 2, (0, 0, 0, 0))   # chi(2) must be 0
        with pytest.raises(ValidationError):
            fd.DirichletCharacter(3, 2, (-1, 1, 0))      # chi(1) != 1

    def test_multiplicativity_check_is_linear(self):
        # chi(a) chi(b) = chi(ab) is checked for b in a generating set of the units, not
        # over all pairs, which took 0.8 s for the quadratic character mod 4001
        exps = fd.kronecker_character(4001).exponents
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            fd.DirichletCharacter(4001, 2, exps)
            best = min(best, time.perf_counter() - start)
        assert best < 0.2, best

    @pytest.mark.parametrize("D,broken", [(-15, 7), (24, 23), (4001, 2), (4001, 3999)])
    def test_non_character_names_a_failing_pair(self, D, broken):
        # one unit's value flipped in (D/.): the refusal names a pair (a, b) whose
        # values really break chi(a) chi(b) = chi(ab)
        q, exps = abs(D), list(fd.kronecker_character(D).exponents)
        exps[broken] = 1 - exps[broken]
        with pytest.raises(ValidationError, match="not a character") as info:
            fd.DirichletCharacter(q, 2, tuple(exps))
        a, b, ab = map(int, re.match(r"chi\((\d+)\) chi\((\d+)\) != chi\((\d+)\)", str(info.value)).groups())
        assert ab == a * b % q
        assert (exps[a] + exps[b] - exps[ab]) % 2

    def test_primitive_by_definition(self):
        # the conductor is the least f | q with chi(a) = 1 at every unit a = 1 mod f; the
        # primitive character mod f agrees with chi at the units and has chi's order
        for q in range(1, 31):
            units = [a for a in range(q) if math.gcd(a, q) == 1]
            for base in oracle.characters_mod(q):
                doubled = fd.DirichletCharacter(q, 2 * base.order, tuple(2 * e if e > 0 else e for e in base.exponents))
                for chi in (base, doubled):
                    f = min(f for f in range(1, q + 1) if q % f == 0 and all(
                        abs(chi.value(a) - 1.0) < 1e-12 for a in units if a % f == 1 % f))
                    order = min(m for m in range(1, q + 1) if all(abs(chi.value(a) ** m - 1.0) < 1e-9 for a in units))
                    prim = chi.primitive()
                    assert (prim.modulus, prim.order) == (f, order), chi
                    assert all(abs(prim.value(a) - chi.value(a)) < 1e-12 for a in units), chi
                    assert all(prim.value(a) == 0 for a in range(f) if math.gcd(a, f) > 1), chi


class TestCharacterFile:
    def write(self, tmp_path, text):
        p = tmp_path / "field.chars"
        p.write_text(text)
        return p

    def test_round_trip(self, tmp_path):
        p = self.write(tmp_path, "# Q(sqrt5)\nchar 1 1 0\nchar 5 2 0,1,1,0,-1\n")
        chars = fd.parse_character_file(p)
        F = fd.make_field_abelian(chars, label="sqrt5-file")
        assert (F.r1, F.r2, F.degree, F.disc) == (2, 0, 2, 5)

    def test_bad_header(self, tmp_path):
        p = self.write(tmp_path, "char 1 1 0\nnonsense 5 2\n")
        with pytest.raises(ParseError) as err:
            fd.parse_character_file(p)
        assert err.value.line == 2

    def test_wrong_exponent_count(self, tmp_path):
        p = self.write(tmp_path, "char 5 2 0,1,1\n")
        with pytest.raises(ParseError):
            fd.parse_character_file(p)

    def test_empty(self, tmp_path):
        p = self.write(tmp_path, "# nothing here\n")
        with pytest.raises(ParseError):
            fd.parse_character_file(p)

    def test_not_multiplicative(self, tmp_path):
        # chi(2) = -1 and chi(3) = 1 but chi(6) = chi(1) = 1
        p = self.write(tmp_path, "char 1 1 0\nchar 5 2 0,1,0,0,-1\n")
        with pytest.raises(ParseError, match="not a character") as err:
            fd.parse_character_file(p)
        assert err.value.line == 2


class TestMakeFieldAbelian:
    def test_rational(self, field_q):
        assert (field_q.r1, field_q.r2, field_q.degree, field_q.disc) == (1, 0, 1, 1)
        assert field_q.unit_rank == 0

    def test_real_quadratic(self, field_sqrt5):
        assert (field_sqrt5.r1, field_sqrt5.r2, field_sqrt5.degree, field_sqrt5.disc) == (2, 0, 2, 5)
        assert field_sqrt5.unit_rank == 1

    def test_cubic_conductor_discriminant(self, field_cubic7):
        # conductor-discriminant: 1 * 7 * 7
        assert (field_cubic7.r1, field_cubic7.r2, field_cubic7.degree, field_cubic7.disc) == (3, 0, 3, 49)

    def test_imaginary_fields(self, field_zeta5):
        assert (field_zeta5.r1, field_zeta5.r2, field_zeta5.disc) == (0, 2, 125)
        gauss = fd.builtin_field("gauss")
        assert (gauss.r1, gauss.r2, gauss.disc) == (0, 1, 4)

    def test_needs_one_principal(self):
        with pytest.raises(ValidationError):
            fd.make_field_abelian([fd.kronecker_character(5)])
        with pytest.raises(ValidationError):
            fd.make_field_abelian([fd.principal_character(), fd.principal_character(3)])

    def test_conjugate_closure(self, field_cubic7):
        chi = field_cubic7.characters[1]
        with pytest.raises(ValidationError):
            fd.make_field_abelian([fd.principal_character(), chi])

    def test_signature_consistency(self):
        # one odd character among three: neither totally real nor totally imaginary
        with pytest.raises(ValidationError):
            fd.make_field_abelian([fd.principal_character(),
                                   fd.kronecker_character(5),
                                   fd.kronecker_character(-4)])

    def test_refuses_non_groups(self, field_cubic7):
        one, chi_5, chi_8, chi_7 = (fd.principal_character(), fd.kronecker_character(5),
                                    fd.kronecker_character(8), field_cubic7.characters[1])
        for chars, message in (([one, chi_5, chi_8], "not a group"), ([one, chi_5, chi_5], "repeats"),
                               ([one, chi_7], "not a group"), ([chi_5], "not a group")):
            with pytest.raises(ValidationError, match=message):
                fd.make_field_abelian(chars)

    def test_accepts_exactly_the_subgroups(self):
        # every subset of the characters mod q (a random 400 and the subgroups of two
        # generators where there are more than 2^8), in a random order; the subgroups are
        # the nonempty subsets closed under products, found from the values
        rng = np.random.RandomState(40)
        for q in GROUP_MODULI:
            group = oracle.characters_mod(q)
            values = np.array([[chi.value(a) for a in range(q)] for chi in group])
            product = [[int(np.argmin(np.abs(values - u * v).sum(axis=1))) for v in values] for u in values]
            n = len(group)
            if n <= 8:
                subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(2 ** n)]
            else:
                subsets = [list(np.flatnonzero(rng.rand(n) < 0.5)) for _ in range(400)]
                for pair in itertools.combinations(range(n), 2):
                    span = set(pair)
                    while not {product[i][j] for i in span for j in span} <= span:
                        span |= {product[i][j] for i in span for j in span}
                    subsets.append(sorted(span))
            for subset in subsets:
                chars = [group[i] for i in rng.permutation(subset)]
                if subset and all(product[i][j] in subset for i in subset for j in subset):
                    assert fd.make_field_abelian(chars).degree == len(subset), (q, subset)
                else:
                    with pytest.raises(ValidationError):
                        fd.make_field_abelian(chars)


# the moduli whose whole character groups are searched for subgroups
GROUP_MODULI = (5, 7, 8, 12, 15, 16, 20, 21, 24)


BUILTIN_SIGNATURES = {"Q": (1, 0, 1, 1), "sqrt5": (2, 0, 2, 5), "gauss": (0, 1, 2, 4),
                      "cubic7": (3, 0, 3, 49), "zeta5": (0, 2, 4, 125)}
# 0 < Re s < 1 off the critical line, where the Hurwitz sums keep their digits
FUNCTIONAL_EQUATION_POINTS = (0.3 + 2.0j, 0.7 - 5.0j, 0.2 + 14.5j)


def _completed_l(factor, chi, s):
    """(Lambda(s, chi) = (q/pi)^((s + a)/2) Gamma((s + a)/2) L(s, chi) on an array s, its error bound).

    The bound is |prefactor| times L's proven error (numerics._l_factor_jets)
    plus |Lambda| times the exponent's: log Gamma's proven error and 8 eps
    times |exponent| + 1 for its rounding and the product's.
    """
    jet = nx._l_factor_jets((chi,), s, 1)[0]
    z = (s + factor.shift) / 2.0
    log_gamma, log_gamma_error = nx._loggamma_and_error(z)
    exponent = z * math.log(factor.conductor / math.pi) + log_gamma
    prefactor = np.exp(exponent)
    value = prefactor * jet.coeffs[:, 0]
    return value, np.abs(prefactor) * jet.err[:, 0] + np.abs(value) * (
        log_gamma_error + 8.0 * nx._EPS * (np.abs(exponent) + 1.0))


class TestLFactors:
    def test_signature_read_off_the_records(self):
        for name, signature in BUILTIN_SIGNATURES.items():
            F = fd.builtin_field(name)
            shifts = [f.shift for f in F.factors]
            assert (F.r1, F.r2, F.degree, F.disc) == signature, name
            assert (shifts.count(0) - shifts.count(1), shifts.count(1), len(shifts),
                    math.prod(f.conductor for f in F.factors)) == signature, name
            assert F.characters == tuple(f.character for f in F.factors)
            assert F.unit_rank == F.r1 + F.r2 - 1

    def test_records_of_each_character(self):
        for name in BUILTIN_SIGNATURES:
            for f in fd.builtin_field(name).factors:
                assert f.character == f.character.primitive()
                assert (f.shift, f.conductor) == (int(f.character.is_odd), f.character.primitive().modulus)

    def test_root_numbers_have_modulus_one(self):
        for name in BUILTIN_SIGNATURES:
            for f in fd.builtin_field(name).factors:
                assert abs(abs(f.root_number) - 1.0) <= 4 * nx._EPS, (name, f)

    def test_real_character_has_root_number_one(self):
        # Gauss: tau(chi) = sqrt(q) for an even real primitive chi, i sqrt(q) for an odd one
        real = [f for name in BUILTIN_SIGNATURES for f in fd.builtin_field(name).factors
                if f.character.order <= 2]
        assert {f.conductor for f in real} == {1, 4, 5}
        for f in real:
            assert abs(f.root_number - 1.0) <= 4 * nx._EPS, f

    def test_root_numbers_multiply_to_one(self):
        # eps(chi) eps(conj chi) = chi(-1) = 1 for the even pairs and the odd ones alike
        for name in BUILTIN_SIGNATURES:
            factors = fd.builtin_field(name).factors
            assert abs(math.prod(f.root_number for f in factors) - 1.0) <= 8 * nx._EPS, name
        assert abs(fd.builtin_field("cubic7").factors[1].root_number - 1.0) > 0.1

    def test_functional_equation(self):
        # Lambda(s, chi) = eps Lambda(1 - s, conj chi) within the two sides' proven errors
        s = np.array(FUNCTIONAL_EQUATION_POINTS)
        for name in BUILTIN_SIGNATURES:
            for f in fd.builtin_field(name).factors:
                lhs, lhs_error = _completed_l(f, f.character, s)
                rhs, rhs_error = _completed_l(f, f.character.conjugate(), 1.0 - s)
                gap = np.abs(lhs - f.root_number * rhs)
                assert np.all(gap <= lhs_error + rhs_error + 8 * nx._EPS * (np.abs(lhs) + np.abs(rhs))), (name, f)
                assert np.all(gap <= 1e-12 * np.abs(lhs)), (name, f)

    def test_character_file_field_equals_builtin(self, tmp_path):
        p = tmp_path / "cubic7.chars"
        p.write_text("char 1 1 0\nchar 7 3 0,2,1,1,2,0,-1\nchar 7 3 0,1,2,2,1,0,-1\n")
        F, builtin = fd.make_field_abelian(fd.parse_character_file(p), label="file"), fd.builtin_field("cubic7")
        assert F.cache_key == builtin.cache_key
        assert F.factors == builtin.factors
        for k in (1, 2):
            assert np.array_equal(fd._euler_table(F, -k, 500), fd.power_coeffs(builtin, k, 500).values)
            assert np.array_equal(fd._euler_table(F, k, 500), fd.moebius_coeffs(builtin, k, 500).values)


class TestIdealCoeffs:
    def test_rational_all_ones(self, field_q):
        assert np.all(fd.ideal_coeffs(field_q, 100).values[1:] == 1)

    def test_quadratic_against_divisor_sum(self, field_sqrt5):
        table = fd.ideal_coeffs(field_sqrt5, 200)
        for n in range(1, 201):
            ref = oracle.kronecker_ideal_count(5, n, fd.kronecker)
            assert table[n] == ref, n
        assert (table[2], table[4], table[5], table[11]) == (0, 1, 1, 2)

    def test_cubic_splitting(self, field_cubic7):
        table = fd.ideal_coeffs(field_cubic7, 120)
        assert table[7] == 1          # ramified
        assert table[29] == 3         # split: 29 = 1 mod 7
        assert table[113] == 3        # 113 = 1 mod 7
        assert table[2] == 0 and table[8] == 1   # inert prime, cube of its ideal

    def test_non_integer_euler_factor_raises(self):
        with pytest.raises(RoundingDriftError, match="drifted"):
            fd._euler_table(_order5_mod11_factors(), -1, 2)

    def test_negative_ideal_count_raises(self, field_cubic7):
        field = _non_group_factors(field_cubic7)
        for table in (lambda: fd._euler_table(field, -1, 30), lambda: fd._euler_table(field, -1, 3),
                      lambda: fd._euler_table(field, 2, 30)):
            with pytest.raises(RoundingDriftError, match="negative ideal count"):
                table()

    def test_refusals_name_the_prime(self, field_cubic7):
        # 2 takes a slice of its own at n_max = 30 and is gathered per cofactor at 3
        with pytest.raises(RoundingDriftError, match=r"p = 2 drifted"):
            fd._euler_table(_order5_mod11_factors(), -1, 2)
        for n_max in (30, 3):
            with pytest.raises(RoundingDriftError, match=r"negative ideal count at .*p = 2$"):
                fd._euler_table(_non_group_factors(field_cubic7), -1, n_max)


def _factors_of(characters):
    """A stand-in carrying only the L-factors of a character list that make_field_abelian refuses."""
    return types.SimpleNamespace(factors=tuple(fd._l_factor(chi) for chi in characters))


def _order5_mod11_factors():
    """{1, chi, conj chi}, chi mod 11 of order 5 with chi(2) = e^{2 pi i/5}, not a group (chi^2 is
    missing): P_2(T) has the non-integer coefficient -(1 + 2 cos(2 pi/5)) at T."""
    dlog = {pow(2, j, 11): j for j in range(10)}
    chi = fd.character_from_exponents(11, 5, [dlog[a] % 5 if a < 11 else -1
                                              for a in range(1, 12)])
    return _factors_of([fd.principal_character(), chi, chi.conjugate()])


def _non_group_factors(field_cubic7):
    """{1, psi_5, chi_7, conj chi_7}, not closed under products: a_F(2) would be -1."""
    chi = field_cubic7.characters[1]
    return _factors_of([fd.principal_character(), fd.kronecker_character(5), chi, chi.conjugate()])


GRID_FIELDS = ("Q", "sqrt5", "cubic7", "zeta5", "gauss")
# cubic7's ramified prime 7 takes a slice of its own from n_max = 49 = 7^2 on and is
# one of the primes gathered per cofactor at n_max = 48
GRID_SIZES = (1, 2, 6, 48, 49, 128)


class TestPowerCoeffs:
    def test_divisor_function(self, field_q):
        d2 = fd.power_coeffs(field_q, 2, 6)
        assert list(d2.values[1:7]) == [1, 2, 2, 3, 2, 4]

    def test_k_one_is_ideal_coeffs(self, field_sqrt5):
        assert np.all(fd.power_coeffs(field_sqrt5, 1, 50).values ==
                      fd.ideal_coeffs(field_sqrt5, 50).values)

    def test_d3_by_enumeration(self, field_q):
        d3 = fd.power_coeffs(field_q, 3, 30)
        for n in (1, 4, 12, 30):
            assert d3[n] == oracle.brute_dk(3, n)
        assert d3[4] == 6

    def test_multiplicativity(self, field_sqrt5, field_cubic7):
        rng = np.random.RandomState(8)
        for field, k in [(field_sqrt5, 2), (field_cubic7, 1)]:
            t = fd.power_coeffs(field, k, 10000)
            done = 0
            while done < 200:
                m = int(rng.randint(2, 100))
                n = int(rng.randint(2, 100))
                if math.gcd(m, n) != 1 or m * n > 10000:
                    continue
                assert t[m * n] == t[m] * t[n]
                done += 1

    def test_against_character_convolution(self):
        # a_F is the convolution of the character sequences, a_{F,k} its k-fold power
        for name in GRID_FIELDS:
            field = fd.builtin_field(name)
            seqs = [np.array([0j] + [chi.value(n) for n in range(1, 129)])
                    for chi in field.characters]
            acc = seqs[0]
            for seq in seqs[1:]:
                acc = oracle.dirichlet_convolve(acc, seq)
            a = np.round(acc.real).astype(np.int64)
            assert np.max(np.abs(acc - a)) < 1e-9
            ak = a
            for k in (1, 2, 3):
                for n_max in GRID_SIZES:
                    assert np.array_equal(fd.power_coeffs(field, k, n_max).values,
                                          ak[:n_max + 1]), (name, k, n_max)
                ak = oracle.dirichlet_convolve(ak, a)


class TestDirichletSieves:
    def test_convolve_matches_enumeration(self):
        rng = np.random.RandomState(42)
        for _ in range(6):
            n_max = int(rng.randint(30, 700))
            f = rng.randint(-5, 6, n_max + 1).astype(np.int64)
            g = rng.randint(-5, 6, n_max + 1).astype(np.int64)
            f[0] = g[0] = 0
            out = oracle.dirichlet_convolve(f, g)
            brute = np.zeros(n_max + 1, dtype=np.int64)
            for n in range(1, n_max + 1):
                brute[n] = sum(f[d] * g[n // d] for d in range(1, n + 1) if n % d == 0)
            assert np.array_equal(out, brute)


class TestMoebiusCoeffs:
    def test_classical(self, field_q):
        mu = fd.moebius_coeffs(field_q, 1, 6)
        assert list(mu.values[1:7]) == [1, -1, -1, 0, -1, 1]

    def test_k2_prime_powers(self, field_q):
        mu2 = fd.moebius_coeffs(field_q, 2, 16)
        assert (mu2[2], mu2[4], mu2[8], mu2[16]) == (-2, 1, 0, 0)

    def test_against_brute_inversion(self):
        for name in GRID_FIELDS:
            field = fd.builtin_field(name)
            for k in (1, 2, 3):
                for n_max in GRID_SIZES:
                    ref = oracle.brute_dirichlet_inverse(
                        list(fd.power_coeffs(field, k, n_max).values), n_max)
                    mine = fd.moebius_coeffs(field, k, n_max)
                    assert list(mine.values[1:]) == ref[1:], (name, k, n_max)

    def test_prime_value(self, field_cubic7):
        # at a prime p with a_F(p) = e the inverse of the k-th power is -k e
        a = fd.ideal_coeffs(field_cubic7, 50)
        for k in (1, 2, 3):
            mu = fd.moebius_coeffs(field_cubic7, k, 50)
            for p in (2, 3, 5, 7, 29, 41, 43):
                assert mu[p] == -k * a[p]

    def test_inversion_identity_all_fields(self, field_q, field_sqrt5, field_cubic7):
        for field in (field_q, field_sqrt5, field_cubic7):
            for k in (1, 2, 3):
                conv = oracle.dirichlet_convolve(fd.power_coeffs(field, k, 10000).values,
                                                 fd.moebius_coeffs(field, k, 10000).values)
                assert conv[1] == 1
                assert np.all(conv[2:] == 0)

    def test_growth_domination(self, field_q, field_sqrt5, field_cubic7):
        n_max = 10000
        for field, k in [(field_q, 1), (field_q, 3), (field_sqrt5, 2), (field_cubic7, 3)]:
            a = fd.power_coeffs(field, k, n_max).values
            dk = fd.power_coeffs(field_q, field.degree * k, n_max).values
            assert np.all(a <= dk)

    def test_vanishing_sum_trend(self, field_q, field_sqrt5):
        for field, k in [(field_q, 1), (field_q, 2), (field_sqrt5, 1)]:
            mu = fd.moebius_coeffs(field, k, 100000).values.astype(float)
            n = np.arange(1, 100001, dtype=float)
            partial = np.cumsum(mu[1:] / n)
            assert abs(partial[-1]) < 0.05
            # decreasing envelope, decade over decade
            early = np.max(np.abs(partial[999:10000]))
            late = np.max(np.abs(partial[99000:]))
            assert late < early


class TestPartialSumConsistency:
    def test_zeta_two(self, field_q, field_sqrt5, field_cubic7):
        n_max = 10000
        for field in (field_q, field_sqrt5, field_cubic7):
            table = fd.ideal_coeffs(field, n_max)
            n = np.arange(1, n_max + 1, dtype=float)
            partial = float(np.sum(table.values[1:] / n ** 2))
            val = nx.dedekind_zeta(2.0, field).real
            h = fd.residue_constant(field)
            assert abs(partial - val) < 10.0 * h / n_max


class TestFieldConstants:
    def test_residue_rational(self, field_q):
        assert fd.residue_constant(field_q) == pytest.approx(1.0, rel=1e-12)

    def test_residue_sqrt5(self, field_sqrt5):
        ref = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
        assert fd.residue_constant(field_sqrt5) == pytest.approx(ref, rel=1e-11)

    def test_residue_cubic_is_l_value_squared(self, field_cubic7):
        chi = field_cubic7.characters[1]
        lval = nx.dirichlet_l(1.0, chi)
        assert fd.residue_constant(field_cubic7) == pytest.approx(abs(lval) ** 2, rel=1e-10)

    def test_laurent_rational(self, field_q):
        assert fd.laurent_constant(field_q) == pytest.approx(-0.5, rel=1e-11)

    def test_laurent_sqrt5_closed_form(self, field_sqrt5):
        ref = -math.log((1.0 + math.sqrt(5.0)) / 2.0) / 2.0
        assert fd.laurent_constant(field_sqrt5) == pytest.approx(ref, rel=1e-10)

    def test_laurent_negative_everywhere(self):
        for name in ("Q", "sqrt5", "cubic7", "zeta5", "gauss"):
            assert fd.laurent_constant(fd.builtin_field(name)) < 0

    def test_class_number_route(self):
        # C_F = -H_F sqrt(D) / (2^r1 (2 pi)^r2), an independent consistency loop
        for name in ("Q", "sqrt5", "cubic7", "zeta5", "gauss"):
            F = fd.builtin_field(name)
            c1 = fd.laurent_constant(F)
            c2 = -fd.residue_constant(F) * math.sqrt(F.disc) / \
                (2.0 ** F.r1 * (2.0 * math.pi) ** F.r2)
            assert c1 == pytest.approx(c2, rel=1e-10)

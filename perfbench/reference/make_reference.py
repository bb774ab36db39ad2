"""Build the benchmark's reference zero ordinates with mpmath alone.

zetatheta is not imported here: the ordinates are an independent check of
its scanner and the zero lists fed to its inverse checks.

* Q: the Riemann zeta zeros from ``mpmath.zetazero``.
* sqrt5, gauss, cubic7, zeta5: the Dedekind zeta of an abelian field is the
  product of the Riemann zeta and Dirichlet L-functions of primitive
  characters, so its zeros are the union of their zeros.  Each L-factor is
  scanned on its own through the real Hardy-type function
  ``Z_chi(t) = Re(L(1/2+it, chi) exp(i theta_chi(t)) / c)``, where
  ``theta_chi(t) = Im log Gamma((1/2 + a + it)/2) + (t/2) log(q/pi)`` for a
  character of parity ``a`` and ``c`` is the unit constant (a square root of
  the root number) read off numerically.  A complex character is scanned on
  ``[-T, T]``: zeros of its conjugate are its own zeros reflected.

Run from the repository root (about 10 minutes on two cores):

    python3 perfbench/reference/make_reference.py

It writes ``<field>.zeros`` (all ordinates up to the scan height) and
``<field>-inverse.zeros`` (the cut fed to inverse-check, hlr-check and
dgv-check) next to itself, and checks the first 30 Riemann zeros against
``tests/data/riemann_zeros_30.txt``.
"""

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

# Zero ordinates above the highest window any workload draws (see
# perfbench/workloads.py), with room for the window width.
Q_HEIGHT = 1015.0
L_HEIGHT = 155.0
INVERSE_CUT = 60.0
GRID_STEP = 0.05
DPS = 20

# Characters as value tables chi(0), ..., chi(q-1); parity a = 0 even, 1 odd.
CHI5_QUADRATIC = ("chi5_quadratic", [0, 1, -1, -1, 1], 0, False)
CHI4 = ("chi4", [0, 1, 0, -1], 1, False)
CHI7_CUBIC = ("chi7_cubic", [0, 1] + [complex(mpmath.expj(2 * mpmath.pi * e / 3))
                                      for e in (2, 1, 1, 2, 0)], 0, True)
CHI5_QUARTIC = ("chi5_quartic", [0, 1, 1j, -1j, -1], 1, True)

FIELDS = {
    "Q": [],
    "sqrt5": [CHI5_QUADRATIC],
    "gauss": [CHI4],
    "cubic7": [CHI7_CUBIC],
    "zeta5": [CHI5_QUADRATIC, CHI5_QUARTIC],
}


def riemann_zeros(height):
    mpmath.mp.dps = DPS
    out, n = [], 1
    while True:
        g = float(mpmath.zetazero(n).imag)
        if g > height:
            return out
        out.append(g)
        n += 1


def _hardy(values, parity):
    q = len(values)
    log_q_pi = mpmath.log(q / mpmath.pi)

    def f(t):
        s = mpmath.mpc(0.5, t)
        theta = mpmath.im(mpmath.loggamma((s + parity) / 2)) + t / 2 * log_q_pi
        return mpmath.dirichlet(s, values) * mpmath.expj(theta)
    return f


def l_zeros(spec, height):
    """Ordinates in (0, height] of L(s, chi), and of L(s, conj chi) if complex."""
    name, values, parity, is_complex = spec
    mpmath.mp.dps = DPS
    f = _hardy(values, parity)
    probe = max((f(t) for t in (3.3, 7.7, 12.1)), key=abs)
    c = probe / abs(probe)

    def z(t):
        v = f(t) / c
        if abs(v.imag) > 1e-8 * max(1.0, abs(v)):
            raise RuntimeError(f"{name}: Hardy function not real at t = {t}: {v}")
        return float(v.real)

    lo = -height if is_complex else 0.0
    n = int(round((height - lo) / GRID_STEP))
    ts = [lo + i * GRID_STEP for i in range(n + 1)]
    vals = [z(t) for t in ts]
    brackets = [(ts[i], ts[i + 1]) for i in range(n) if vals[i] * vals[i + 1] < 0]
    # |Z| dipping without a sign change may hide two zeros in one cell
    for i in range(1, n):
        if vals[i - 1] * vals[i] > 0 and vals[i] * vals[i + 1] > 0 and \
                abs(vals[i]) < abs(vals[i - 1]) and abs(vals[i]) < abs(vals[i + 1]):
            fine = [ts[i - 1] + j * GRID_STEP / 50 for j in range(101)]
            fv = [z(t) for t in fine]
            brackets += [(fine[j], fine[j + 1]) for j in range(100) if fv[j] * fv[j + 1] < 0]
    zeros = sorted(abs(float(mpmath.findroot(z, br, solver="anderson")))
                   for br in brackets)
    return [g for g in zeros if 0 < g <= height]


def check_against_tests(q_zeros):
    path = os.path.join(REPO, "tests", "data", "riemann_zeros_30.txt")
    with open(path) as fh:
        known = [float(line) for line in fh if line.strip() and not line.startswith("#")]
    worst = max(abs(a - b) for a, b in zip(known, q_zeros))
    if len(known) != 30 or worst > 1e-9:
        raise SystemExit(f"Riemann zeros disagree with {path}: worst {worst:.2e}")
    print(f"first 30 Riemann zeros agree with tests/data to {worst:.1e}")


def write(path, gammas, header):
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for g in gammas:
            fh.write(f"{g:.12f}\n")


def main():
    jobs = {"Q": (riemann_zeros, Q_HEIGHT)}
    for specs in FIELDS.values():
        for spec in specs:
            jobs[spec[0]] = (l_zeros, spec)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        futures = {}
        for name, (fn, arg) in jobs.items():
            futures[name] = pool.submit(fn, arg) if fn is riemann_zeros \
                else pool.submit(fn, arg, L_HEIGHT)
        found = {name: fut.result() for name, fut in futures.items()}
    check_against_tests(found["Q"])
    for field, specs in FIELDS.items():
        height = Q_HEIGHT if field == "Q" else L_HEIGHT
        gammas = sorted(g for g in found["Q"] if g <= height)
        for spec in specs:
            gammas += found[spec[0]]
        gammas.sort()
        for a, b in zip(gammas, gammas[1:]):
            if b - a < 1e-6:
                raise SystemExit(f"{field}: coincident ordinates {a}, {b}")
        factors = " x ".join(["zeta"] + [f"L({s[0]})" for s in specs])
        write(os.path.join(HERE, f"{field}.zeros"), gammas,
              f"{field}: zeros of {factors} with 0 < t <= {height:g} (mpmath {mpmath.__version__})")
        cut = [g for g in gammas if g <= INVERSE_CUT]
        write(os.path.join(HERE, f"{field}-inverse.zeros"), cut,
              f"{field}: the {len(cut)} ordinates of {field}.zeros with t <= {INVERSE_CUT:g}")
        print(f"{field}: {len(gammas)} zeros up to {height:g}, {len(cut)} up to {INVERSE_CUT:g}")


if __name__ == "__main__":
    sys.exit(main())

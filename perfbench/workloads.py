"""Seeded op lists: each workload is an endless sequence of rounds.

The timed workloads (theta-cold, zeros-scan, inverse-mu) draw their inputs
from the ranges where the package's checks pass, so that a failed op means
the program got worse.  The inputs on which the package is known to fail
form a workload of their own, `defects`, which the timed runs leave out and
which reports every failing op by argv.

Every round holds the same op kinds in the same numbers; the seed draws the
inputs (x, z, window heights) and the order within the round.  Inputs are
drawn stratified: a kind that appears m times per round takes one value
from each of m equal strata of its range, and only from the central
STRATUM_SPREAD of each stratum.  Costs in this package step with the input
(table sizes double at fixed |log x|, scan cost grows with height), so a
value anywhere in a stratum would make the mix of cheap and expensive ops,
and with it every end-to-end metric, depend on the seed.

A run ends with the round during which --seconds of op time pass.  A round
lasts about 20-30 s on 2 CPUs, so a 10 s run is one round, and stays one
round when the machine's speed drifts: the op mix of a run does not depend
on it.
"""

import math
import random
from dataclasses import dataclass

FIELDS = ("Q", "sqrt5", "gauss", "cubic7", "zeta5")
DEGREE = {"Q": 1, "sqrt5": 2, "gauss": 2, "cubic7": 3, "zeta5": 4}
REF = "perfbench/reference"

THETA_TOL = 1e-8
PHI_TOL = 1e-6
INVERSE_TOL = 1e-5
DGV_TOL = 1e-5
HLR_TOL = 1e-4
SCAN_TOL = 1e-6         # scanned against reference ordinates

# zeros-scan: window width, and the range of window starts per field.  No
# window reaches the first height where the scanner fails (see
# DEFECT_SCANS): Q raises RealityViolationError above t ~ 167 and sqrt5
# above ~ 94.  Nor does a window hold two zeros closer than 0.03, which the
# scan at its default step 0.02 may lose, depending on where the grid falls:
# cubic7 34.7742/34.7925, zeta5 14.1155/14.1348 and 29.7028/29.7079 (all
# pairs closer than 0.06 are listed in README.md).  Q starts are log-uniform,
# so low and high t both occur.  Passing scans take about 0.01-0.05 s for
# Q, 0.04-0.2 s for sqrt5 and gauss and 0.2-0.6 s for cubic7 and zeta5, and
# the same op varies by 20-30% from run to run on a shared machine.  The
# counts put the median op in the middle of the sqrt5/gauss group and the
# tail (10 ops beyond it) in the middle of the cubic7/zeta5 group, away from
# the gaps between groups, where one op more or less would move it far.
SCAN_WIDTH = 5.0
SCAN_STARTS = {"Q": (1.0, 155.0), "sqrt5": (0.0, 85.0), "gauss": (0.0, 75.0),
               "cubic7": (0.0, 29.0), "zeta5": (14.5, 24.0)}
SCAN_WINDOWS = {"Q": 24, "sqrt5": 48, "gauss": 48, "cubic7": 16, "zeta5": 16}

# inverse-mu: copies per round of each op kind, stratified over the signed
# log x range [-log 4, log 4].  The strata centres (log x = 0 and +-0.92
# for 3 copies, +-0.69 for 2) keep clear of the steps in the table sizes
# (|log x| ~ 0.46 and ~ 0.8 for Q at k = 2 and sqrt5 at k = 1).  The counts
# put the median and the tail (10 ops beyond it) inside the group of
# hlr-check ops (0.15-0.25 s), between the cheap Q ops and the slow sqrt5
# and Q k = 2 ops.  inverse-check runs where it converges: Q and sqrt5 at
# k = 1 and Q at k = 2 (the others are in DEFECT_INVERSE).
INVERSE_COPIES = {("inverse-check", "Q", 1): 3, ("inverse-check", "sqrt5", 1): 2,
                  ("inverse-check", "Q", 2): 3, ("dgv-check", "Q", 0): 3,
                  ("dgv-check", "sqrt5", 0): 2, ("hlr-check", "Q", 0): 12}
MAX_LOG_X = math.log(4.0)

# theta-cold: the x counts of the theta-check ops of each (field, k) in one
# round; phi-check and the x = -1 checks appear as often.
THETA_X_COUNTS = (1, 2, 3) * 6

# defects: inputs on which the package is known to fail, one op of each per
# round.  Scan windows of DEFECT_SCAN_WIDTH: (field, lowest start, highest
# start, what fails); a window from any whole-number start in the range holds
# the failure.  Whether a close pair is lost depends on where the scan grid
# falls; from a whole-number start, these pairs are always lost.
DEFECT_SCAN_WIDTH = 10.0
DEFECT_SCANS = (
    ("Q", 170, 430, "RealityViolationError above t ~ 167"),
    ("Q", 450, 990, "no zeros at all, exit 0, from t ~ 450"),
    ("sqrt5", 95, 140, "RealityViolationError above t ~ 94"),
    ("gauss", 76, 84, "pair 84.7317/84.7355 lost"),
    ("cubic7", 37, 45, "pair 46.0868/46.0961 lost"),
    ("zeta5", 20, 29, "pair 29.7028/29.7079 lost"),
    ("zeta5", 39, 48, "pair 48.47766/48.47785 lost"),
)
# inverse-check fails for these (field, k): l_series does not converge, or
# for zeta5 the zero list fails the simplicity diagnostic.
DEFECT_INVERSE = (("gauss", 1), ("cubic7", 1), ("zeta5", 1), ("sqrt5", 2))
# phi-check misses its tol for these fields once |Im z| passes three
# quarters of the strip |Im z| < pi d/4 - 0.2.
DEFECT_PHI = ("cubic7", "zeta5")

# Share of each stratum that values are drawn from (see module docstring).
STRATUM_SPREAD = 0.2


@dataclass(frozen=True)
class Op:
    kind: str               # CLI subcommand
    argv: tuple             # full argument list for zetatheta.cli.main
    tol: float = 0.0        # residual tolerance (scans: ordinate tolerance)
    points: int = 0         # evaluation points, one TSV row each
    field: str = ""
    window: tuple = ()      # zeros-scan range

    def command(self):
        return "zetatheta " + " ".join(self.argv)


def _strata(rng, m, lo, hi):
    """m values in [lo, hi), one from the central STRATUM_SPREAD of each of m
    equal strata, in random order."""
    cells = list(range(m))
    rng.shuffle(cells)
    return [lo + (c + 0.5 + STRATUM_SPREAD * (rng.random() - 0.5)) * (hi - lo) / m
            for c in cells]


def _num(v):
    return f"{v:.10g}"


def _complex_arg(v):
    return f"{_num(v.real)},{_num(v.imag)}"


def _theta_round(rng):
    ops = []
    for field in FIELDS:
        d = DEGREE[field]
        # sector |Arg x| < pi d/2 - 0.2 (the check's own margin), less 0.3
        max_arg = min(math.pi * d / 2.0 - 0.2, math.pi) - 0.3
        for k in (1, 2):
            n = sum(THETA_X_COUNTS)
            xs = [math.exp(m) * complex(math.cos(a), math.sin(a))
                  for m, a in zip(_strata(rng, n, -2.0, 2.0), _strata(rng, n, -max_arg, max_arg))]
            for count in THETA_X_COUNTS:
                pts, xs = xs[:count], xs[count:]
                argv = ["theta-check", "--field", field, "--k", str(k)]
                argv += [f"--x={_complex_arg(x)}" for x in pts]
                ops.append(Op("theta-check", tuple(argv + ["--tol", f"{THETA_TOL:g}"]),
                              THETA_TOL, count, field))
        # Phi identity: |Im z| within half its strip |Im z| < pi d/4 - 0.2
        # (at three quarters of it the seed misses tol for cubic7 and zeta5)
        max_im = 0.5 * (math.pi * d / 4.0 - 0.2)
        copies = len(THETA_X_COUNTS)
        zs = zip(_strata(rng, copies, -1.0, 1.0), _strata(rng, copies, -max_im, max_im))
        ops += [_phi_op(field, complex(re, im)) for re, im in zs]
    for field in ("cubic7", "zeta5"):
        for _ in THETA_X_COUNTS:
            ops.append(Op("theta-check", ("theta-check", "--field", field, "--k", "1", "--x=-1",
                                          "--tol", f"{THETA_TOL:g}"), THETA_TOL, 1, field))
    return ops


def _scan_round(rng):
    ops = []
    for field in FIELDS:
        lo, hi = SCAN_STARTS[field]
        m = SCAN_WINDOWS[field]
        if field == "Q":
            starts = [math.exp(u) for u in _strata(rng, m, math.log(lo), math.log(hi))]
        else:
            starts = _strata(rng, m, lo, hi)
        ops += [_scan_op(field, start) for start in starts]
    return ops


def _log_x_strata(rng, m):
    """m values of x in [1/4, 4], stratified in log x."""
    return [math.exp(u) for u in _strata(rng, m, -MAX_LOG_X, MAX_LOG_X)]


def _zeros(field):
    return ("--zeros", f"{REF}/{field}-inverse.zeros")


def _inverse_op(field, k, x):
    argv = ("inverse-check", "--field", field, "--k", str(k), f"--x={_num(x)}",
            *_zeros(field), "--tol", f"{INVERSE_TOL:g}")
    return Op("inverse-check", argv, INVERSE_TOL, 1, field)


def _scan_op(field, start, width=SCAN_WIDTH):
    a, b = _num(round(start, 3)), _num(round(start, 3) + width)
    return Op("zeros-scan", ("zeros-scan", "--field", field, f"--range={a},{b}"),
              SCAN_TOL, field=field, window=(float(a), float(b)))


def _phi_op(field, z):
    return Op("phi-check", ("phi-check", "--field", field, f"--z={_complex_arg(z)}",
                            "--tol", f"{PHI_TOL:g}"), PHI_TOL, 1, field)


def _inverse_round(rng):
    ops = []
    for (kind, field, k), copies in INVERSE_COPIES.items():
        for x in _log_x_strata(rng, copies):
            if kind == "inverse-check":
                ops.append(_inverse_op(field, k, x))
            elif kind == "dgv-check":
                argv = ("dgv-check", "--field", field, f"--x={_num(x)}", *_zeros(field),
                        "--tol", f"{DGV_TOL:g}")
                ops.append(Op("dgv-check", argv, DGV_TOL, 1, field))
            else:
                argv = ("hlr-check", f"--x={_num(x)}", *_zeros("Q"), "--tol", f"{HLR_TOL:g}")
                ops.append(Op("hlr-check", argv, HLR_TOL, 1, "Q"))
    return ops


def _defects_round(rng):
    ops = [_scan_op(field, rng.randint(lo, hi), DEFECT_SCAN_WIDTH)
           for field, lo, hi, _ in DEFECT_SCANS]
    ops += [_inverse_op(field, k, math.exp(rng.uniform(-MAX_LOG_X, MAX_LOG_X)))
            for field, k in DEFECT_INVERSE]
    for field in DEFECT_PHI:
        strip = math.pi * DEGREE[field] / 4.0 - 0.2
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.75, 0.9) * strip
        ops.append(_phi_op(field, complex(rng.uniform(-1.0, 1.0), im)))
    return ops


WORKLOADS = {
    "theta-cold": _theta_round,
    "zeros-scan": _scan_round,
    "inverse-mu": _inverse_round,
    "defects": _defects_round,
}


def rounds(workload, seed):
    """Endless iterator of rounds (lists of Op) for `workload` under `seed`."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        ops = make(rng)
        rng.shuffle(ops)
        yield ops

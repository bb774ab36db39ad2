"""Per-op verdicts: exit code, every TSV residual against its tolerance, and
each scanned zero list against the reference ordinates of its window."""

import math
import os

# Column holding the residual, per subcommand.
RESIDUAL_COLUMN = {
    "theta-check": "residual",
    "phi-check": "residual",
    "inverse-check": "rel_error",
    "hlr-check": "residual",
    "dgv-check": "residual",
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def load_reference(field):
    """Reference ordinates of one builtin field (see reference/make_reference.py)."""
    with open(os.path.join(REFERENCE_DIR, f"{field}.zeros")) as fh:
        header = fh.readline()
        height = float(header.rsplit("<=", 1)[1].split()[0])
        return height, [float(line) for line in fh if line.strip()]


class Verdict:
    """Outcome of one op: `ok`, the failure reason, and the tolerance margin
    min over rows of log10(tol / residual) for a passing op."""

    __slots__ = ("ok", "reason", "margin")

    def __init__(self, ok, reason="", margin=None):
        self.ok, self.reason, self.margin = ok, reason, margin


def _margin(tol, residual):
    return math.log10(tol / max(residual, 1e-300))


def _rows(stdout):
    lines = [line for line in stdout.splitlines() if line]
    if not lines:
        return None, []
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def verify(op, result, references):
    """Verdict for `op` given the child's result dict (see executor.run_op)."""
    if result.get("error"):
        return Verdict(False, f"exception: {result['error']}")
    header, rows = _rows(result["stdout"])
    if result["code"] != 0 or header is None:
        stderr = result.get("stderr", "").strip().splitlines()
        why = stderr[-1] if stderr else _table_verdict(op, header, rows).reason
        return Verdict(False, f"exit {result['code']}: {why or 'no output'}")
    try:
        if op.kind == "zeros-scan":
            return _verify_scan(op, header, rows, references[op.field][1])
        return _table_verdict(op, header, rows)
    except (ValueError, IndexError) as exc:
        return Verdict(False, f"unparsable output: {exc}")


def _table_verdict(op, header, rows):
    col = RESIDUAL_COLUMN.get(op.kind)
    if header is None or col not in header:
        return Verdict(False, f"no {col} column in {header}")
    if len(rows) != op.points:
        return Verdict(False, f"{len(rows)} rows for {op.points} evaluation points")
    idx = header.index(col)
    margin = math.inf
    for row in rows:
        if len(row) != len(header):
            return Verdict(False, f"ragged row {row}")
        residual = float(row[idx])
        if not residual <= op.tol:
            return Verdict(False, f"{col} {residual:.3e} above tol {op.tol:g}")
        margin = min(margin, _margin(op.tol, residual))
    return Verdict(True, margin=margin)


def _verify_scan(op, header, rows, reference):
    """A scanned ordinate matches a reference one within op.tol, which is
    also the tolerance the scan's margin is measured against."""
    if header != ["gamma", "xi_residual"]:
        return Verdict(False, f"unexpected scan header {header}")
    lo, hi = op.window
    tol = op.tol
    found = [float(row[0]) for row in rows]
    expected = [g for g in reference if lo + tol < g < hi - tol]
    edge = [g for g in reference if lo - tol <= g <= hi + tol and g not in expected]
    worst = 0.0
    missed = []
    for g in expected:
        err = min((abs(f - g) for f in found), default=math.inf)
        if err > tol:
            missed.append(g)
        else:
            worst = max(worst, err)
    extra = [f for f in found
             if min((abs(f - g) for g in expected + edge), default=math.inf) > tol]
    if missed or extra or len(found) > len(expected) + len(edge):
        parts = []
        if missed:
            parts.append(f"missed {len(missed)} of {len(expected)} zeros "
                         f"({', '.join(f'{g:.5f}' for g in missed[:4])}"
                         f"{', ...' if len(missed) > 4 else ''})")
        if extra:
            parts.append(f"{len(extra)} ordinates not in the reference "
                         f"({', '.join(f'{g:.5f}' for g in extra[:4])})")
        if not parts:
            parts.append(f"{len(found)} ordinates for {len(expected)} zeros")
        return Verdict(False, "; ".join(parts))
    return Verdict(True, margin=_margin(tol, worst))

"""One op = one CLI invocation in a child forked from a parent that has only
imported zetatheta, so every op starts from the memo state a fresh
`zetatheta` process finds and pays the cold-cache cost a user pays."""

import contextlib
import io
import json
import os
import select
import signal
import sys
import time
import traceback

import tracing

# An op still running after this many seconds is killed and counted failed.
OP_TIMEOUT_S = 120.0


def _child(argv, trace_functions):
    """Body of the forked child: run the CLI, return what the parent needs."""
    out, err = io.StringIO(), io.StringIO()
    result = {"code": None, "error": None}
    tracer = None
    if trace_functions is not None:
        tracer = tracing.Tracer()
        result["missing"] = tracing.install(tracer, trace_functions)
    cli = sys.modules["zetatheta.cli"]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["code"] = cli.main(list(argv))
    except Exception as exc:  # the op's failure is what gets measured
        result["error"] = f"{type(exc).__name__}: {exc}"
        result["traceback"] = traceback.format_exc(limit=-3)
    result["stdout"] = out.getvalue()
    result["stderr"] = err.getvalue()[-4000:]
    if tracer is not None:
        result["trace"] = tracer.payload()
    return result


def run_op(argv, trace_functions=None, timeout=OP_TIMEOUT_S):
    """Run `argv` in a forked child.

    Returns (result, latency_s, peak_rss_mib, cpu_s).  `result` is the child's dict
    (exit code, stdout, stderr tail, exception, optional trace payload) or
    one describing how the child died.  Latency runs from before the fork to
    the reaping of the child.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            data = json.dumps(_child(argv, trace_functions)).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks, killed = [], False
    deadline = t0 + timeout
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([fh], [], [], remaining)
            if ready:
                chunk = os.read(fh.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - t0
    usage = (usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)
    if killed:
        return {"code": None, "error": f"timeout after {timeout:g} s"}, latency, *usage
    if status != 0 or not chunks:
        return {"code": None, "error": f"child died (wait status {status})"}, latency, *usage
    return json.loads(b"".join(chunks)), latency, *usage

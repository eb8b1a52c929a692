"""One benchmark pass in a fresh process.

Sets up (imports numpy, scipy and hmfx, creates the output directories),
then runs the workload's ops in-process through ``hmfx.cli.main`` and
checks every op's output.  The pass result is rewritten after each op, so
a pass stopped from outside still reports the ops it finished.

    python3 perfbench/passrun.py --root CHECKOUT --workload NAME --seed N \
        --out DIR --result FILE [--trace FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import signal
import sys
import time
import traceback

from workloads import build_ops, check_output, check_solver_failure

EXIT_OK, EXIT_SOLVER = 0, 3


class OpTimeout(BaseException):
    """Raised by the alarm when an op runs past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _write_json(path: pathlib.Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def csv_digests(out: pathlib.Path) -> dict:
    """sha256 of every CSV artifact under an op's output directory."""
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*.csv"))}


def run_op(op, out: pathlib.Path, cli) -> dict:
    """Run one op in-process; returns its record (outcome, time, digests)."""
    signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    start = time.perf_counter()
    code, error = None, None
    try:
        code = cli.main(op.argv(out))
    except OpTimeout:
        error = f"timed out after {op.limit_s} s"
    except Exception:  # an op crash is reported, not fatal to the pass
        error = "crashed: " + traceback.format_exc(limit=-3)
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    record = {"id": op.id, "exit": code, "elapsed_s": elapsed, "problems": []}
    if error is not None:
        record["problems"].append(error)
    elif elapsed > op.limit_s:
        record["problems"].append(f"ran {elapsed:.3f} s, past its {op.limit_s} s limit")
    elif code == EXIT_OK:
        record["problems"] += check_output(op, out)
    elif code == EXIT_SOLVER:
        record["problems"] += check_solver_failure(op, out)
    else:
        record["problems"].append(f"exit code {code}")
    record["digests"] = csv_digests(out)
    # ok: the op ran and its output passed its check.  broken: the outcome
    # is not one the CLI documents (crash, timeout, wrong output, an exit
    # code other than 0 or 3); exit 3 with a solver-error summary is a
    # documented solver failure, counted as not ok but not broken.
    record["ok"] = code == EXIT_OK and not record["problems"]
    record["broken"] = bool(record["problems"]) or code not in (EXIT_OK, EXIT_SOLVER)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--trace", type=pathlib.Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import scipy.integrate
    import scipy.sparse.linalg
    import hmfx.cli as cli
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hmfx imported from {cli.__file__}, not from {src}")
    ops = build_ops(args.workload, args.seed)
    for op in ops:
        (args.out / op.id).mkdir(parents=True, exist_ok=True)
    result = {"ready": time.monotonic(), "ops": [],
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.setup_only:
        _write_json(args.result, result)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace is not None:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        result["ops"].append(run_op(op, args.out / op.id, cli))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _write_json(args.result, result)
    if tracer is not None:
        tracer.uninstall()
        _write_json(args.trace, {"overhead_s": tracer.overhead_s, "spans": tracer.spans})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

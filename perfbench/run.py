"""hmfx benchmark: time one workload's op list in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an hmfx checkout.  It compiles ``src/hmfx``, then
times a few bare set-ups (interpreter start, numpy, scipy and hmfx
imports, output directories) and runs passes over the workload's op list,
each pass in a fresh process, until ``--seconds`` have been measured (at
least one pass).  Every op's output is checked, and the sha256 of every
CSV artifact must match what earlier runs in the checkout made from the
same hmfx source and op arguments.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` a single traced pass gives the per-layer metrics instead.
The last line of standard output is the result object; the line before it
holds every metric as median, the highest percentile with at least ten
samples beyond it, and the sample count, plus the run environment.
Outputs, traces and the digest record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, build_ops

HERE = pathlib.Path(__file__).resolve().parent
# setup_s is the median of each pass's own set-up and of two bare ones,
# taken before and after the passes so that they fall in different
# stretches of machine load
# every run, builds included, must end within three minutes
RUN_DEADLINE_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}
# commands with a time of their own; ops in the millisecond range (solve-gl
# sweeps, asymptotics) count only in wall_s
TIMED_COMMANDS = ("solve-corot", "diagnose", "caloric", "fixed-point")


def loadavg():
    try:
        return [float(v) for v in pathlib.Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def describe(values) -> dict:
    """Median, highest percentile with at least ten samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "p": None, "p_value": None}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            out["p"] = p
            out["p_value"] = values[math.ceil(p / 100.0 * n) - 1]
            break
    return out


def code_hash(src: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class DigestRecord:
    """CSV digests by hmfx source and op arguments, kept across runs in one checkout."""

    def __init__(self, path: pathlib.Path, code: str):
        self.path = path
        self.all = json.loads(path.read_text()) if path.exists() else {}
        self.known = self.all.setdefault(code, {})

    def check(self, op, digests: dict) -> bool:
        """True when the digests match what this code made before from the same op."""
        key = " ".join((op.id,) + op.sets)
        if key not in self.known:
            self.known[key] = digests
            return True
        return self.known[key] == digests

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


def spawn_pass(root, args, out, result, deadline, trace=None, setup_only=False):
    """Run passrun.py; returns (result dict or None, spawn time, exit status)."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "passrun.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out), "--result", str(result)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    result.unlink(missing_ok=True)
    with open(result.with_suffix(".log"), "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        status = "stopped at the run deadline"
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    data = json.loads(result.read_text()) if result.exists() else None
    return data, spawned, status


def account(ops, data, status, digests) -> dict:
    """Per-op outcomes of one pass, with failed ops charged their limit."""
    records = {r["id"]: r for r in (data or {}).get("ops", [])}
    outcome = {"ops": [], "wall_s": 0.0, "cmd": {}}
    for op in ops:
        rec = records.get(op.id)
        if rec is None:
            rec = {"id": op.id, "exit": None, "ok": False,
                   "broken": True, "digests": {}, "elapsed_s": None,
                   "problems": [f"not run: pass ended with {status!r}"]}
        elif not digests.check(op, rec["digests"]):
            rec["ok"], rec["broken"] = False, True
            rec["problems"].append("CSV digests differ from an earlier run of the same "
                                   "hmfx source and op arguments")
        charged = rec["elapsed_s"] if rec["ok"] else op.limit_s
        outcome["wall_s"] += charged
        outcome["cmd"][op.command] = outcome["cmd"].get(op.command, 0.0) + charged
        outcome["ops"].append(rec)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "hmfx" / "cli.py").is_file():
        print(f"no hmfx sources under {src}; run from the root of an hmfx checkout",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(src / "hmfx", quiet=1):
        print("hmfx sources do not compile", file=sys.stderr)
        return 2

    env = {"nproc": len(os.sched_getaffinity(0)),
           "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
           "seed": args.seed, "workload": args.workload, "trace": args.trace,
           "loadavg_start": loadavg()}
    ops = build_ops(args.workload, args.seed)
    run_dir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    digests = DigestRecord(root / ".perfbench_out" / "digests.json", code_hash(src / "hmfx"))

    setups, passes, trace_file = [], [], None

    def bare_setup(tag):
        data, spawned, _ = spawn_pass(root, args, run_dir / tag, run_dir / f"{tag}.json",
                                      deadline, setup_only=True)
        if data is not None:
            setups.append(data["ready"] - spawned)

    if args.trace:
        trace_file = run_dir / "trace.json"
        data, spawned, status = spawn_pass(root, args, run_dir / "pass0", run_dir / "pass0.json",
                                           deadline, trace=trace_file)
        passes.append((data, account(ops, data, status, digests)))
    else:
        bare_setup("setup0")
        measure_start, last = time.monotonic(), 0.0
        while not passes or (time.monotonic() - measure_start < args.seconds
                             and time.monotonic() + last < deadline):
            k = len(passes)
            t0 = time.monotonic()
            data, spawned, status = spawn_pass(root, args, run_dir / f"pass{k}",
                                               run_dir / f"pass{k}.json", deadline)
            last = time.monotonic() - t0
            if data is not None:
                setups.append(data["ready"] - spawned)
            passes.append((data, account(ops, data, status, digests)))
        bare_setup("setup1")
    digests.save()
    env["loadavg_end"] = loadavg()
    env["versions"] = next((d["versions"] for d, _ in passes if d), None)

    records = [rec for _, outcome in passes for rec in outcome["ops"]]
    attempted = len(records)
    ok = sum(rec["ok"] for rec in records)
    failed = sum(rec["broken"] for rec in records)
    detail = {"env": env,
              "failures": {rec["id"]: {"exit": rec["exit"], "problems": rec["problems"]}
                           for rec in records if not rec["ok"]}}
    if args.trace:
        import tracing
        trace = json.loads(trace_file.read_text()) if trace_file.exists() else None
        if trace is None:
            failed = max(failed, 1)
            values = {}
        else:
            values = tracing.layer_metrics(trace["spans"], trace["overhead_s"])
        metrics = {name: {"value": v, "unit": tracing.metric_unit(name)[0]}
                   for name, v in values.items()}
    else:
        series = {
            "setup_s": setups,
            "wall_s": [o["wall_s"] for _, o in passes],
            "peak_rss_mb": [d["peak_rss_kb"] / 1024.0 for d, _ in passes
                            if d and "peak_rss_kb" in d],
            "ok_share": [ok / attempted],
            "fail_share": [(attempted - ok) / attempted],
        }
        cmds = [c for c in TIMED_COMMANDS if any(op.command == c for op in ops)]
        series.update({f"cmd.{c}_s": [o["cmd"][c] for _, o in passes] for c in cmds})
        detail["metrics"] = {}
        for name, values in series.items():
            if values:
                unit = "share" if name == "fail_share" else END_TO_END_UNITS.get(name, "s")
                detail["metrics"][name] = {"unit": unit, **describe(values)}
        metrics = {name: {"value": detail["metrics"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in detail["metrics"]}
        if len(metrics) < len(END_TO_END_UNITS):
            failed = max(failed, 1)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

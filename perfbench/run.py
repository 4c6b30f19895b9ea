"""decodelab benchmark: one workload, measured end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload text_sweep --seed 1 --seconds 30 --trace 0

Workloads: ``text_sweep``, ``frame_rollouts``, ``train_generate`` (see
README.md next to this file).  With ``--trace 0`` the run starts three
fresh worker processes one after another; each sets up from process start,
then runs rounds of CLI commands for a third of ``--seconds``.  With
``--trace 1`` one worker alternates untraced and traced runs of the same
round.  After each worker ends, this process checks every round's outputs.  The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the machine
description goes to ``perfbench/results/``.

Exits non-zero without a result when the checkout holds no ``src/decodelab``
or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("text_sweep", "frame_rollouts", "train_generate")
SETUPS_PER_RUN = 3
#: Calibration time that defines the reference machine speed (the fast
#: state of the 2-core box the README's figures come from).
CALIBRATION_REFERENCE_S = 0.008
RUN_TIMEOUT_S = 170.0


def _environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _spawn(args, work: Path, index: int, budget: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--trace", str(args.trace), "--first-round", str(10_000 * index),
           "--work", str(work),
           "--spans-out", str(HERE / "results" / f"spans-{args.workload}-seed{args.seed}.json"),
           "--t0"]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + [repr(t0)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # a timeout or an interrupt: never leave the worker running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"worker {index} ran past the run's time limit") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {index} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(sampling_command: str, workers: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result line, extra figures for the result file) from the workers' reports."""
    rounds = [r for w in workers for r in w["rounds"]]
    ops = [op for r in rounds for op in r["ops"]]
    errors = [e for r in rounds for op_errors in r["errors"] for e in op_errors]
    failed = sum(op[2] != 0 or bool(op_errors) for r in rounds for op, op_errors in zip(r["ops"], r["errors"]))
    result = {"correct": not errors, "attempted": len(ops), "failed": failed}
    extra = {
        "rounds": len(rounds),
        "ambiguous": sum(r["ambiguous"] for r in rounds),
        "errors": errors[:10],
    }
    if trace:
        extra["trace_pairs"] = workers[0]["pairs"]
        result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)} for k, v in workers[0]["per_layer"].items()}
        return result, extra

    # Each time is also scaled to the reference machine speed: multiplied by
    # CALIBRATION_REFERENCE_S over the calibration time measured next to it.
    setup = [w["setup_s"] for w in workers]
    setup_adj = [w["setup_s"] * CALIBRATION_REFERENCE_S / w["setup_calibration_s"] for w in workers]
    scale = [CALIBRATION_REFERENCE_S / r["calibration_s"] for r in rounds]
    round_s = [sum(op[1] for op in r["ops"]) for r in rounds]
    sample_s = [sum(op[1] for op in r["ops"] if op[0] == sampling_command) for r in rounds]
    tokens = sum(r["tokens"] for r in rounds)
    frames = sum(r["frames"] for r in rounds)

    def stats(values: list[float]) -> dict:
        return {"n": len(values), "median": statistics.median(values), "quartiles": _quartiles(values)}

    per_command: dict[str, list[tuple[float, float]]] = {}
    for r, f in zip(rounds, scale):
        for op in r["ops"]:
            per_command.setdefault(op[0], []).append((op[1], op[1] * f))
    extra.update({
        "tokens": tokens,
        "frames": frames,
        "calibration_s": stats([r["calibration_s"] for r in rounds]),
        "raw": {
            "setup_s": stats(setup),
            "round_s": stats(round_s),
            "tokens_per_s": statistics.median(r["tokens"] / t for r, t in zip(rounds, sample_s)),
            "command_s": {c: stats([raw for raw, _ in v]) for c, v in per_command.items()},
        },
        "scaled": {
            "setup_s": stats(setup_adj),
            "round_s": stats([t * f for t, f in zip(round_s, scale)]),
            "command_s": {c: stats([adj for _, adj in v]) for c, v in per_command.items()},
        },
    })
    rates = [r["tokens"] / (t * f) for r, t, f in zip(rounds, sample_s, scale)]
    if frames:
        extra["scaled"]["frames_per_s"] = statistics.median(
            r["frames"] / (t * f) for r, t, f in zip(rounds, sample_s, scale))
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup_adj), "unit": "s"},
        "wall_s": {"value": extra["scaled"]["round_s"]["median"], "unit": "s"},
        "tokens_per_s": {"value": statistics.median(rates), "unit": "tokens/s"},
        "peak_rss_mb": {"value": max(w["peak_rss_mb"] for w in workers), "unit": "MB"},
    }
    return result, extra


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="decodelab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "decodelab" / "cli.py").is_file():
        print(f"error: no decodelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    (HERE / "results").mkdir(exist_ok=True)
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS as CHECKERS

    n = 1 if args.trace else SETUPS_PER_RUN
    checker = None
    workers = []
    for i in range(n):
        work = HERE / "work" / f"{args.workload}-{os.getpid()}-{i}"
        try:
            workers.append(_spawn(args, work, i, args.seconds / n, deadline))
            if checker is None:
                checker = CHECKERS[args.workload](work, args.seed)
                checker.prepare_checks()
            checker.work = work
            for rec in workers[-1]["rounds"]:
                try:
                    rec["errors"], rec["ambiguous"] = checker.check_round(rec)
                except Exception as exc:  # output malformed in a way no check foresaw
                    rec["errors"], rec["ambiguous"] = [[f"check raised {exc!r}"]] * len(rec["ops"]), 0
        except (RuntimeError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only if no other run is using it

    result, extra = summarize(CHECKERS[args.workload].sampling_command, workers, bool(args.trace))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": _environment(), "result": result, "extra": extra}
    out = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# {args.workload} seed={args.seed}: {extra['rounds']} rounds, {extra['ambiguous']} ambiguous "
          f"replays, result file {out.relative_to(ROOT)}")
    for e in extra["errors"]:
        print(f"# check failed: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

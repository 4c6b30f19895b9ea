"""One workload process: set-up, then rounds until the time budget is spent.

Started by ``run.py``, one process at a time.  It puts the checkout's
``src`` first on ``sys.path``, so the program measured is the one in the
checkout.  Each round's output files stay in the work directory for
``run.py`` to check.  The last stdout line is one JSON object with the
set-up time, the peak resident memory and every round's command times and
stdout, and, with ``--trace 1``, the per-layer summary of the traced rounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


_CAL_Z = np.linspace(-3.0, 3.0, 40)


def calibration_s() -> float:
    """Seconds taken by a fixed mix of small numpy calls and dict work.

    It shares no code with the program, so only the machine changes its
    time; the median of three runs senses how fast the machine is running
    right now.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(800):
            e = np.exp((_CAL_Z - _CAL_Z.max()) / 0.7)
            p = e / e.sum()
            c = np.cumsum(p[np.lexsort((np.arange(40), -p))])
            acc += float(c[int(np.searchsorted(c, 0.9))])
            table[(i % 97, i % 13)] = table.get((i % 97, i % 13), 0.0) + acc
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def timed_rounds(wl, budget: float, first_round: int) -> dict:
    """Rounds until the budget is spent, with a calibration before the first
    round and after each one."""
    rounds = []
    cal = [calibration_s()]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        rounds.append(wl.run_round(first_round + len(rounds), "timed"))
        cal.append(calibration_s())
        rounds[-1]["calibration_s"] = (cal[-2] + cal[-1]) / 2
    return {"rounds": rounds}


def traced_rounds(wl, budget: float, spans_out: Path) -> dict:
    """Pairs of one untraced and one traced run of round 0, until the budget
    is spent.  Call counts must repeat exactly from pair to pair."""
    from tracer import Tracer

    rounds, untraced_s, traced_s, selfs = [], [], [], []
    counts = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < budget:
        pair = len(selfs)
        plain = wl.run_round(0, f"pair{pair}-untraced")
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_round(0, f"pair{pair}-traced")
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        these = {k: v for k, v in summary.items() if not k.endswith(".self_s")}
        if counts is None:
            counts = these
            tracer.dump(spans_out)
            spans = len(tracer.spans)
        elif these != counts:
            raise RuntimeError("traced call counts differ between two runs of the same round")
        rounds += [plain, traced]
        untraced_s.append(sum(op[1] for op in plain["ops"]))
        traced_s.append(sum(op[1] for op in traced["ops"]))
        selfs.append({k: v for k, v in summary.items() if k.endswith(".self_s")})
    n = len(selfs)
    layer = dict(counts)
    for key in selfs[0]:
        layer[key] = sum(s[key] for s in selfs) / n
    wall = sum(traced_s) / n
    layer["trace.wall_s"] = wall
    layer["trace.untraced_wall_s"] = sum(untraced_s) / n
    layer["trace.overhead_s"] = wall - layer["trace.untraced_wall_s"]
    layer["trace.unattributed_s"] = wall - sum(layer[key] for key in selfs[0])
    layer["trace.spans"] = spans
    return {"rounds": rounds, "per_layer": layer, "pairs": n}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of rounds to run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-round", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--work", required=True, help="new directory for the inputs and each round's outputs")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import decodelab.cli
    from workloads import WORKLOADS

    if not Path(decodelab.cli.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise RuntimeError(f"decodelab imported from {decodelab.cli.__file__}, not from this checkout")

    work = Path(args.work)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    setup_calibration_s = calibration_s()
    if args.trace:
        result = traced_rounds(wl, args.budget, Path(args.spans_out))
    else:
        result = timed_rounds(wl, args.budget, args.first_round)
    result["setup_s"] = setup_s
    result["setup_calibration_s"] = setup_calibration_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks made apart from the program.

Nothing here imports ``decodelab``.  The checks rebuild what each CLI
command should have written from the README's rules: window counts made
with ``collections.Counter``, a reference sampler written stage by stage in
plain Python, seeds recomputed with ``numpy.random.SeedSequence`` and
uniforms drawn from an independent ``Philox`` stream.

Each ``check_*`` function returns a list of error strings (empty when the
output is right).  The reference sampler raises :class:`Ambiguous` when a
decision sits so close to a boundary that last-bit differences between its
arithmetic and the program's could flip it; callers count such rows as
ambiguous, not failed.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

#: The README's 40-glyph alphabet; token i is SYMBOLS[i], EOS is the last.
SYMBOLS = "abcdefghijklmnopqrstuvwxyz0123456789 .,¶"
INDEX = {g: i for i, g in enumerate(SYMBOLS)}
D = len(SYMBOLS)
EOS = SYMBOLS[-1]
LOGIT_FLOOR = 1e-300

#: A uniform this close to a reference CDF boundary makes a draw ambiguous.
DRAW_BAND = 1e-9
#: A cumulative mass, floor or near-tie this close makes a cut ambiguous.
CUT_BAND = 1e-12

STAGE_NAMES = ("after-softmax", "after-top-k", "after-top-p", "after-min-p")
SWEEP_HEADER = ["run_id", "T", "k", "top_p", "min_p", "seed", "mean_entropy", "mean_survivors_final", "output_text"]
SIM_HEADER = ["k", "trial", "freeze_index", "mean_novelty"]


class Ambiguous(Exception):
    """A sampling decision lies within rounding distance of its boundary."""


# -- seeds and streams ---------------------------------------------------------


def spawn_seed(master: int, ordinal: int) -> int:
    """``SeedSequence(master, spawn_key=(ordinal,))``, first 64-bit word."""
    ss = np.random.SeedSequence(int(master), spawn_key=(int(ordinal),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def philox_uniforms(seed: int, n: int) -> list[float]:
    """The first ``n`` doubles of an independent ``Philox(seed)`` generator."""
    return [float(x) for x in np.random.Generator(np.random.Philox(int(seed))).random(n)]


# -- window counts -------------------------------------------------------------


class WindowCounts:
    """Counts of every corpus window of length 1..order, per context string."""

    def __init__(self, text: str, order: int, alpha: float):
        self.order = order
        self.alpha = alpha
        self.context_counts: dict[int, dict[str, Counter]] = {}
        for m in range(1, order + 1):
            windows = Counter(text[i : i + m] for i in range(len(text) - m + 1))
            table: dict[str, Counter] = {}
            for window, n in windows.items():
                table.setdefault(window[:-1], Counter())[window[-1]] = n
            self.context_counts[m] = table

    def model_counts(self) -> dict:
        """The ``counts`` object of the model JSON these windows imply."""
        out = {}
        for m, table in self.context_counts.items():
            out[str(m)] = {
                ",".join(str(INDEX[g]) for g in ctx): {str(INDEX[g]): n for g, n in nxt.items()}
                for ctx, nxt in table.items()
            }
        return out

    def conditional(self, context: str) -> list[float]:
        """``(count + alpha) / (total + alpha * D)`` on the trailing context,
        backing off to shorter contexts when ``alpha`` is 0 and it is unseen."""
        start = min(self.order, len(context) + 1)
        for m in range(start, 0, -1):
            ctx = context[len(context) - (m - 1) :] if m > 1 else ""
            nxt = self.context_counts[m].get(ctx, {})
            total = sum(nxt.values())
            if total > 0 or self.alpha > 0:
                denom = total + self.alpha * D
                return [(nxt.get(g, 0) + self.alpha) / denom for g in SYMBOLS]
        raise ValueError("no unigram counts")


def logits(masses: list[float]) -> list[float]:
    return [math.log(max(m, LOGIT_FLOOR)) for m in masses]


# -- reference sampler ---------------------------------------------------------


def _softmax(z: list[float], temperature: float) -> list[float]:
    top = max(z)
    e = [math.exp((v - top) / temperature) for v in z]
    total = math.fsum(e)
    return [x / total for x in e]


def _renorm(masses: list[float]) -> list[float]:
    total = math.fsum(masses)
    return [m / total for m in masses]


def _check_tie(masses, idx, z, a: int, b: int) -> None:
    """Entries a and b of a sorted list sit on two sides of a cut: ambiguous
    unless they are clearly apart or exact ties of equal logits."""
    if abs(masses[a] - masses[b]) < CUT_BAND and z[idx[a]] != z[idx[b]]:
        raise Ambiguous("near-tie across a cut")


def reference_sample(z: list[float], temperature: float, k: int, top_p: float, min_p: float, u: float | None):
    """One pipeline step by the README's stage rules.

    Returns ``(token, stages)`` where ``stages`` holds one ``(masses,
    index_map)`` pair per executed stage.  ``u`` is the uniform for the draw
    (unused in argmax mode, ``temperature == 0``).
    """
    n = len(z)
    if temperature == 0.0:
        p = _softmax(z, 1.0)
        best = max(p)
        token = min(i for i in range(n) if p[i] == best)
        for i in range(n):
            if i != token and 0 < best - p[i] < CUT_BAND:
                raise Ambiguous("near-tie at the argmax")
        return token, [(p, list(range(n)))]

    q = _softmax(z, temperature)
    idx = sorted(range(n), key=lambda i: (-q[i], i))
    masses = [q[i] for i in idx]
    stages = [(q, list(range(n)))]

    # top-k: the first min(k, n) entries
    if k < n:
        _check_tie(masses, idx, z, k - 1, k)
        masses, idx = _renorm(masses[:k]), idx[:k]
    stages.append((masses, idx))

    # top-p: through the entry whose running total first reaches top_p
    cums = list(itertools.accumulate(masses))
    cut = next((j for j, c in enumerate(cums) if c >= top_p), len(masses) - 1)
    if (cut > 0 and cums[cut - 1] >= top_p - CUT_BAND) or (cut < len(masses) - 1 and cums[cut] < top_p + CUT_BAND):
        raise Ambiguous("running total at the top-p threshold")
    if cut < len(masses) - 1:
        _check_tie(masses, idx, z, cut, cut + 1)
        masses, idx = _renorm(masses[: cut + 1]), idx[: cut + 1]
    stages.append((masses, idx))

    # min-p: absolute floor, the largest entry survives if none qualifies
    if min_p > 0.0 and any(abs(m - min_p) < CUT_BAND for m in masses):
        raise Ambiguous("mass at the min-p floor")
    keep = [j for j, m in enumerate(masses) if m >= min_p]
    if not keep:
        keep = [0]  # sorted descending, ties by index: entry 0 is the largest
        if len(masses) > 1:
            _check_tie(masses, idx, z, 0, 1)
        masses, idx = [1.0], [idx[0]]
    elif len(keep) < len(masses):
        masses, idx = _renorm([masses[j] for j in keep]), [idx[j] for j in keep]
    stages.append((masses, idx))

    # draw: ascending token order, first running total above u
    order = sorted(range(len(idx)), key=lambda j: idx[j])
    running, token = 0.0, idx[order[-1]]
    for pos, j in enumerate(order):
        running += masses[j]
        if pos < len(order) - 1 and abs(running - u) < DRAW_BAND:
            raise Ambiguous("uniform at a CDF boundary")
        if running > u:
            token = idx[j]
            break
    return token, stages


def entropy(masses: list[float]) -> float:
    return -math.fsum(m * math.log(m) for m in masses if m > 0.0)


def replay(counts: WindowCounts, prompt: str, temperature: float, k: int, top_p: float, min_p: float,
           seed: int, max_len: int):
    """Generate by the reference rules; returns (text, per-token stages)."""
    uniforms = iter(philox_uniforms(seed, max_len))
    text, steps = "", []
    for _ in range(max_len):
        z = logits(counts.conditional(prompt + text))
        u = None if temperature == 0.0 else next(uniforms)
        token, stages = reference_sample(z, temperature, k, top_p, min_p, u)
        text += SYMBOLS[token]
        steps.append(stages)
        if SYMBOLS[token] == EOS:
            break
    return text, steps


# -- text_sweep ------------------------------------------------------------------


def check_sweep(csv_text: str, stdout: str, csv_path: str, *, master_seed: int, grid: dict, prompt: str,
                max_len: int, counts: WindowCounts, replay_rows) -> tuple[list[str], int]:
    """Check one ``decodelab sweep``; returns (errors, ambiguous rows)."""
    errors: list[str] = []
    ambiguous = 0
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep CSV header differs from the README's"], 0
    rows = rows[1:]
    expect = [(t, k, p, mp) for t in grid["temps"] for k in grid["top_ks"] for p in grid["top_ps"] for mp in grid["min_ps"]]
    if len(rows) != len(expect):
        return [f"sweep wrote {len(rows)} rows, the grid has {len(expect)}"], 0
    if stdout != f"rows={len(expect)} csv={csv_path}\n":
        errors.append(f"sweep stdout {stdout!r}")
    for run_id, (row, (t, k, p, mp)) in enumerate(zip(rows, expect)):
        try:
            rid, rt, rk, rp, rmp, seed = int(row[0]), float(row[1]), int(row[2]), float(row[3]), float(row[4]), int(row[5])
            mean_h, mean_n, text = float(row[6]), float(row[7]), row[8]
        except (ValueError, IndexError):
            errors.append(f"row {run_id}: unparsable {row!r}")
            continue
        if (rid, rt, rk, rp, rmp) != (run_id, t, k, p, mp):
            errors.append(f"row {run_id}: config {row[:5]} is not grid point {(run_id, t, k, p, mp)}")
            continue
        if seed != spawn_seed(master_seed, run_id):
            errors.append(f"row {run_id}: seed {seed} != SeedSequence({master_seed}, spawn_key=({run_id},))")
        if not 1 <= len(text) <= max_len or any(g not in INDEX for g in text) or EOS in text[:-1] \
                or (len(text) < max_len and not text.endswith(EOS)):
            errors.append(f"row {run_id}: output text breaks the EOS / max_len rules")
            continue
        if not 1.0 <= mean_n <= D or mean_h > math.log(mean_n) + 1e-12:
            errors.append(f"row {run_id}: mean_entropy {mean_h} > ln(mean_survivors_final {mean_n})")
        if run_id not in replay_rows:
            continue
        try:
            ref_text, steps = replay(counts, prompt, t, k, p, mp, seed, max_len)
        except Ambiguous:
            ambiguous += 1
            continue
        finals = [stages[-1][0] for stages in steps]
        if ref_text != text:
            errors.append(f"row {run_id}: output differs from the reference sampler")
        elif sum(len(f) for f in finals) / len(finals) != mean_n:
            errors.append(f"row {run_id}: mean_survivors_final {mean_n} != reference")
        elif abs(math.fsum(entropy(f) for f in finals) / len(finals) - mean_h) > 1e-9:
            errors.append(f"row {run_id}: mean_entropy {mean_h} != reference")
    return errors, ambiguous


# -- frame_rollouts --------------------------------------------------------------


def parse_pgm(blob: bytes, vocab: int) -> np.ndarray:
    """Tokens of a binary PGM written with gray = round(t * 255 / (vocab - 1))."""
    m = re.match(rb"P5\n(\d+) (\d+)\n255\n", blob)
    if m is None:
        raise ValueError("not a binary PGM with maxval 255")
    w, h = int(m.group(1)), int(m.group(2))
    gray = np.frombuffer(blob[m.end():], dtype=np.uint8)
    if gray.size != w * h:
        raise ValueError("PGM pixel count differs from its header")
    tokens = np.rint(gray.astype(np.float64) * (vocab - 1) / 255.0).astype(np.int64)
    if not np.array_equal(np.rint(tokens * (255.0 / (vocab - 1))).astype(np.uint8), gray):
        raise ValueError("PGM gray level is not a token level")
    return tokens.reshape(h, w)


def check_simulate(csv_text: str, stdout: str, csv_path: str, frames_dir: Path, *, master_seed: int, ks, steps: int,
                   trials: int, height: int, width: int, vocab: int) -> list[str]:
    """Check one ``decodelab simulate``: greedy freeze, novelty growth in k,
    and trial 0 recomputed from the dumped frames."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != SIM_HEADER:
        return ["simulate CSV header differs from the README's"]
    rows = rows[1:]
    if len(rows) != len(ks) * trials:
        return [f"simulate wrote {len(rows)} rows, expected {len(ks) * trials}"]
    errors: list[str] = []
    table: dict[int, list[tuple[int, float]]] = {}
    for i, row in enumerate(rows):
        try:
            k, trial, freeze, novelty = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except (ValueError, IndexError):
            return [f"simulate row {i}: unparsable {row!r}"]
        if (k, trial) != (ks[i // trials], i % trials) or not 0.0 <= novelty <= 1.0:
            return [f"simulate row {i}: {row!r} out of order or out of range"]
        table.setdefault(k, []).append((freeze, novelty))
        if k == 1 and (freeze != 1 or novelty != 0.0):
            errors.append(f"k=1 trial {trial}: freeze_index {freeze}, novelty {novelty} (greedy must freeze at 1)")

    n = height * width * steps * trials
    means = [math.fsum(nv for _, nv in table[k]) / trials for k in ks]
    sigmas = [math.sqrt(max(m * (1.0 - m), 1e-12) / n) for m in means]
    for i in range(len(ks) - 1):
        if means[i + 1] < means[i] - 2.0 * (sigmas[i] + sigmas[i + 1]):
            errors.append(f"novelty falls from k={ks[i]} ({means[i]}) to k={ks[i + 1]} ({means[i + 1]}) beyond 2 sigma")

    lines = stdout.splitlines()
    if lines[-1:] != [f"rows={len(rows)} csv={csv_path}"] or len(lines) != len(ks) + 1:
        errors.append("simulate stdout has the wrong shape")
    else:
        for line, k, m in zip(lines, ks, means):
            got = re.fullmatch(r"k=(\d+) mean_novelty=(\S+)", line)
            if got is None or int(got.group(1)) != k or abs(float(got.group(2)) - m) > 1e-12:
                errors.append(f"stdout line {line!r} does not match the CSV mean {m} for k={k}")

    prompt = np.random.Generator(np.random.Philox(spawn_seed(master_seed, 1))).integers(
        0, vocab, size=(height, width), dtype=np.int64)
    for k in ks:
        try:
            frames = [parse_pgm((frames_dir / f"k{k}_t0_f{i:03d}.pgm").read_bytes(), vocab) for i in range(steps + 1)]
        except (OSError, ValueError) as exc:
            errors.append(f"k={k}: frame dump unreadable: {exc}")
            continue
        if not np.array_equal(frames[0], prompt):
            errors.append(f"k={k}: frame 0 is not the seeded prompt frame")
        novelty = [float(np.mean(frames[i + 1] != frames[i])) for i in range(steps)]
        t = steps
        while t >= 1 and np.array_equal(frames[t], frames[t - 1]):
            t -= 1
        freeze = max(t, 1) if t < steps else -1
        freeze0, novelty0 = table[k][0]
        if abs(math.fsum(novelty) / steps - novelty0) > 1e-12:
            errors.append(f"k={k}: trial 0 mean_novelty {novelty0} != {math.fsum(novelty) / steps} from its frames")
        if freeze != freeze0:
            errors.append(f"k={k}: trial 0 freeze_index {freeze0} != {freeze} from its frames")
    return errors


# -- train_generate --------------------------------------------------------------


def check_train(stdout: str, model: dict, *, counts: WindowCounts, n_tokens: int) -> list[str]:
    """Check one ``decodelab train``: every order's counts equal a Counter of
    the corpus windows."""
    errors = []
    contexts = len(counts.context_counts[counts.order])
    if stdout != f"tokens={n_tokens} contexts={contexts}\n":
        errors.append(f"train stdout {stdout!r}, expected tokens={n_tokens} contexts={contexts}")
    head = {k: model.get(k) for k in ("format", "format_version", "order", "alpha", "alphabet")}
    want = {"format": "decodelab-ngram", "format_version": 1, "order": counts.order, "alpha": counts.alpha,
            "alphabet": {"symbols": SYMBOLS, "eos_index": D - 1}}
    if head != want:
        errors.append(f"model header {head} != {want}")
    got = model.get("counts")
    if not isinstance(got, dict):
        return errors + ["model has no counts object"]
    for m, level in counts.model_counts().items():
        if got.get(m) != level:
            errors.append(f"order-{m} counts differ from a Counter of the corpus windows")
    if set(got) != {str(m) for m in range(1, counts.order + 1)}:
        errors.append(f"model has count tables for orders {sorted(got)}")
    return errors


def check_generate(stdout: str, doc: dict, *, counts: WindowCounts, prompt: str, temperature: float, k: int,
                   top_p: float, min_p: float, seed: int, max_len: int) -> tuple[list[str], int]:
    """Check one ``decodelab generate --trace-out``; returns (errors, ambiguous tokens)."""
    errors: list[str] = []
    try:
        output, traces = doc["output"], doc["traces"]
        head = (doc["format"], doc["format_version"], doc["prompt"], doc["stop_reason"])
    except (KeyError, TypeError):
        return ["trace document lacks its fields"], 0
    if stdout != output + "\n":
        errors.append("generate stdout differs from the trace document's output")
    stop = "eos" if output.endswith(EOS) else "max_len"
    if head != ("decodelab-generation", 1, prompt, stop) or len(traces) != len(output) \
            or not 1 <= len(output) <= max_len or (stop == "max_len" and len(output) != max_len):
        return errors + [f"trace header {head} or length {len(traces)} breaks the format"], 0
    uniforms = philox_uniforms(seed, len(traces))
    ambiguous = 0
    for i, (trace, glyph) in enumerate(zip(traces, output)):
        stages = trace["stages"]
        if trace["drawn_uniform"] != uniforms[i]:
            errors.append(f"token {i}: drawn_uniform is not double {i} of Philox({seed})")
        if SYMBOLS[trace["drawn_token"]] != glyph or trace["argmax_mode"]:
            errors.append(f"token {i}: drawn token differs from the output text")
        if tuple(s["stage"] for s in stages) != STAGE_NAMES:
            errors.append(f"token {i}: stage list {[s['stage'] for s in stages]}")
            continue
        sizes = [s["survivor_count"] for s in stages]
        for s in stages:
            if not (len(s["masses"]) == len(s["index_map"]) == s["survivor_count"]) \
                    or abs(math.fsum(s["masses"]) - 1.0) > 1e-9:
                errors.append(f"token {i}: stage {s['stage']} is not a normalized survivor set")
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            errors.append(f"token {i}: survivor counts {sizes} increase")
        cond = counts.conditional(prompt + output[:i])
        smoothed = _softmax(logits(cond), temperature)
        first = stages[0]
        if first["index_map"] != list(range(D)) or max(abs(a - b) for a, b in zip(first["masses"], smoothed)) > 1e-9:
            errors.append(f"token {i}: after-softmax masses differ from the smoothed conditional")
        try:
            token, ref = reference_sample(logits(cond), temperature, k, top_p, min_p, uniforms[i])
        except Ambiguous:
            ambiguous += 1
            continue
        if token != trace["drawn_token"] or [len(m) for m, _ in ref] != sizes:
            errors.append(f"token {i}: reference sampler gives token {token}, survivors {[len(m) for m, _ in ref]}")
        if len(errors) > 20:
            break
    return errors, ambiguous

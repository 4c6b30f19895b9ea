"""Command-line surface: train, generate, sweep, simulate.

Every command is deterministic given its flags (the master seed included);
repeated invocations produce byte-identical stdout and artifacts.  Exit
codes are a stable contract: 0 success, 2 usage or configuration error,
3 data-format error (e.g. a model file with the wrong format version).

Flags override values from an optional JSON config file (``--config``,
keys named like the flag destinations), which in turn override built-in
defaults.  The only environment variable read is ``DECODELAB_LOG``
(debug/info/warning/error), controlling log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .autoregress import DEFAULT_CAPACITY, generate
from .framesim import build_world, frame_to_pgm, k_sweep, novelty_curve, random_frame
from .ngram import ModelFormatError, NGramModel, detokenize, tokenize, train_ngram
from .probcore import entropy
from .sampler import SamplerConfig, derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3

SWEEP_CSV_HEADER = ["run_id", "T", "k", "top_p", "min_p", "seed", "mean_entropy", "mean_survivors_final", "output_text"]
SIM_CSV_HEADER = ["k", "trial", "freeze_index", "mean_novelty"]

log = logging.getLogger("decodelab")

_DEFAULTS: dict[str, dict] = {
    "train": {"order": 4, "alpha": 0.1},
    "generate": {
        "prompt": "",
        "temp": 0.8,
        "top_k": 40,
        "top_p": 0.95,
        "min_p": 0.0,
        "seed": 0,
        "max_len": 200,
        "context": DEFAULT_CAPACITY,
        "trace_out": None,
    },
    "sweep": {
        "prompt": "",
        "temps": [0.8],
        "top_ks": [40],
        "top_ps": [0.95],
        "min_ps": [0.0, 0.06, 0.15],
        "seed": 0,
        "max_len": 120,
        "context": DEFAULT_CAPACITY,
        "csv_out": None,
    },
    "simulate": {
        "height": 8,
        "width": 8,
        "vocab": 16,
        "stay_mass": 0.9,
        "k_grid": [1, 50, 200, 500],
        "steps": 20,
        "trials": 3,
        "seed": 0,
        "csv_out": None,
        "frames_out": None,
    },
}


def _merged_params(args: argparse.Namespace, command: str) -> dict:
    """Built-in defaults, overridden by the JSON config file, overridden by flags."""
    merged = dict(_DEFAULTS[command])
    if getattr(args, "config", None) is not None:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(merged))
        if unknown:
            raise ValueError(f"config file has unknown keys for '{command}': {', '.join(unknown)}")
        merged.update(doc)
    for dest in merged:
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            merged[dest] = flag_value
    return merged


def _require(params: dict, key: str, flag: str) -> object:
    value = params.get(key)
    if value is None:
        raise ValueError(f"{key} is required (flag {flag} or config key '{key}')")
    return value


def _nonempty_grid(values, name: str) -> list:
    values = list(values)
    if not values:
        raise ValueError(f"{name} grid must not be empty")
    return values


def cmd_train(args: argparse.Namespace) -> int:
    p = _merged_params(args, "train")
    text = Path(args.corpus).read_text(encoding="utf-8")
    corpus = tokenize(text)
    model = train_ngram(corpus, order=int(p["order"]), alpha=float(p["alpha"]))
    model.save(args.model_out)
    log.info("trained order-%d model from %s", model.order, args.corpus)
    print(f"tokens={len(corpus)} contexts={model.context_count()}")
    return EXIT_OK


def _sampler_config(p: dict) -> SamplerConfig:
    return SamplerConfig(
        temperature=float(p["temp"]),
        top_k=int(p["top_k"]),
        top_p=float(p["top_p"]),
        min_p=float(p["min_p"]),
        seed=int(p["seed"]),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    p = _merged_params(args, "generate")
    model = NGramModel.load(args.model)
    cfg = _sampler_config(p)
    prompt = tokenize(str(p["prompt"]), model.alphabet)
    result = generate(model, cfg, prompt, max_len=int(p["max_len"]), capacity=int(p["context"]))
    print(detokenize(result.output_tokens, model.alphabet))
    if p["trace_out"] is not None:
        doc = {"format": "decodelab-generation", "format_version": 1}
        doc.update(result.to_json_dict(model.alphabet, include_traces=True))
        Path(p["trace_out"]).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    p = _merged_params(args, "sweep")
    csv_out = _require(p, "csv_out", "--csv-out")
    model = NGramModel.load(args.model)
    prompt = tokenize(str(p["prompt"]), model.alphabet)
    temps = _nonempty_grid(p["temps"], "temperature")
    top_ks = _nonempty_grid(p["top_ks"], "top-k")
    top_ps = _nonempty_grid(p["top_ps"], "top-p")
    min_ps = _nonempty_grid(p["min_ps"], "min-p")
    master_seed = int(p["seed"])
    max_len = int(p["max_len"])
    capacity = int(p["context"])

    rows = []
    run_id = 0
    for temp in temps:
        for k in top_ks:
            for top_p in top_ps:
                for min_p in min_ps:
                    seed = derive_seed(master_seed, run_id)
                    cfg = SamplerConfig(float(temp), int(k), float(top_p), float(min_p), seed)
                    result = generate(model, cfg, prompt, max_len=max_len, capacity=capacity)
                    finals = [t.final for t in result.traces]
                    mean_entropy = float(np.mean([entropy(f) for f in finals]))
                    mean_survivors = float(np.mean([f.survivor_count for f in finals]))
                    rows.append(
                        [
                            run_id,
                            float(temp),
                            int(k),
                            float(top_p),
                            float(min_p),
                            seed,
                            mean_entropy,
                            mean_survivors,
                            detokenize(result.output_tokens, model.alphabet),
                        ]
                    )
                    run_id += 1
    _write_csv(csv_out, SWEEP_CSV_HEADER, rows)
    print(f"rows={len(rows)} csv={csv_out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    p = _merged_params(args, "simulate")
    csv_out = _require(p, "csv_out", "--csv-out")
    height, width, vocab = int(p["height"]), int(p["width"]), int(p["vocab"])
    steps, trials = int(p["steps"]), int(p["trials"])
    if steps < 1:
        raise ValueError(f"steps must be >= 1 (got {steps})")
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    ks = [int(k) for k in _nonempty_grid(p["k_grid"], "k")]
    master_seed = int(p["seed"])

    world = build_world(height, width, vocab, float(p["stay_mass"]), seed=derive_seed(master_seed, 0))
    prompt = random_frame(height, width, vocab, seed=derive_seed(master_seed, 1))
    entries = k_sweep(
        world, prompt, SamplerConfig(1.0, 1), ks, steps=steps, trials=trials,
        master_seed=derive_seed(master_seed, 2),
    )

    rows = []
    for k, rolls in entries:
        for trial, roll in enumerate(rolls):
            freeze = -1 if roll.freeze_index is None else roll.freeze_index
            rows.append([k, trial, freeze, roll.mean_novelty])
    _write_csv(csv_out, SIM_CSV_HEADER, rows)

    if p["frames_out"] is not None:
        out_dir = Path(p["frames_out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, rolls in entries:
            for idx, frame in enumerate(rolls[0].frames):
                (out_dir / f"k{k}_t0_f{idx:03d}.pgm").write_bytes(frame_to_pgm(frame, vocab))

    for k, mean in novelty_curve(entries):
        print(f"k={k} mean_novelty={mean!r}")
    print(f"rows={len(rows)} csv={csv_out}")
    return EXIT_OK


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decodelab",
        description="Decoding laboratory: staged sampling over n-gram text models and a patch-token frame simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a character n-gram model from a UTF-8 corpus")
    train.add_argument("corpus", help="path to a UTF-8 plain-text corpus")
    train.add_argument("model_out", help="path for the model JSON document")
    train.add_argument("--order", type=int, default=None, help="n-gram order (default 4)")
    train.add_argument("--alpha", type=float, default=None, help="additive smoothing (default 0.1)")
    train.add_argument("--config", default=None, help="JSON config file; flags override it")
    train.set_defaults(func=cmd_train)

    gen = sub.add_parser("generate", help="generate text from a trained model")
    gen.add_argument("model", help="path to a model JSON document")
    gen.add_argument("--prompt", default=None, help="prompt text (default empty)")
    gen.add_argument("--temp", type=float, default=None, help="softmax temperature; 0 means argmax mode (default 0.8)")
    gen.add_argument("--top-k", dest="top_k", type=int, default=None, help="top-k survivors (default 40)")
    gen.add_argument("--top-p", dest="top_p", type=float, default=None, help="top-p cumulative mass (default 0.95)")
    gen.add_argument("--min-p", dest="min_p", type=float, default=None, help="absolute min-p floor (default 0)")
    gen.add_argument("--seed", type=int, default=None, help="64-bit seed (default 0)")
    gen.add_argument("--max-len", dest="max_len", type=int, default=None, help="maximum tokens to emit (default 200)")
    gen.add_argument("--context", type=int, default=None, help="context window capacity (default 64)")
    gen.add_argument("--trace-out", dest="trace_out", default=None, help="write per-token sampling traces to this JSON file")
    gen.add_argument("--config", default=None, help="JSON config file; flags override it")
    gen.set_defaults(func=cmd_generate)

    sweep = sub.add_parser("sweep", help="cross-product hyperparameter sweep, one CSV row per grid point")
    sweep.add_argument("model", help="path to a model JSON document")
    sweep.add_argument("--prompt", default=None, help="prompt text (default empty)")
    sweep.add_argument("--temps", type=float, nargs="+", default=None, help="temperature grid (default: 0.8)")
    sweep.add_argument("--top-ks", dest="top_ks", type=int, nargs="+", default=None, help="top-k grid (default: 40)")
    sweep.add_argument("--top-ps", dest="top_ps", type=float, nargs="+", default=None, help="top-p grid (default: 0.95)")
    sweep.add_argument("--min-ps", dest="min_ps", type=float, nargs="+", default=None, help="min-p grid (default: 0 0.06 0.15)")
    sweep.add_argument("--seed", type=int, default=None, help="master seed; per-row seeds are derived from it (default 0)")
    sweep.add_argument("--max-len", dest="max_len", type=int, default=None, help="maximum tokens per row (default 120)")
    sweep.add_argument("--context", type=int, default=None, help="context window capacity (default 64)")
    sweep.add_argument("--csv-out", dest="csv_out", default=None, help="output CSV path (required)")
    sweep.add_argument("--config", default=None, help="JSON config file; flags override it")
    sweep.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="frame-simulator top-k sweep: rollouts, freeze detection, novelty CSV")
    sim.add_argument("--height", type=int, default=None, help="grid height in patches (default 8)")
    sim.add_argument("--width", type=int, default=None, help="grid width in patches (default 8)")
    sim.add_argument("--vocab", type=int, default=None, help="patch-token vocabulary size (default 16)")
    sim.add_argument("--stay-mass", dest="stay_mass", type=float, default=None, help="conditional mass on repeating a patch (default 0.9)")
    sim.add_argument("--k-grid", dest="k_grid", type=int, nargs="+", default=None, help="top-k sweep values (default: 1 50 200 500)")
    sim.add_argument("--steps", type=int, default=None, help="rollout length in predicted frames (default 20)")
    sim.add_argument("--trials", type=int, default=None, help="rollouts per k (default 3)")
    sim.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    sim.add_argument("--csv-out", dest="csv_out", default=None, help="output CSV path (required)")
    sim.add_argument("--frames-out", dest="frames_out", default=None, help="directory for PGM dumps of each k's first trial")
    sim.add_argument("--config", default=None, help="JSON config file; flags override it")
    sim.set_defaults(func=cmd_simulate)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("DECODELAB_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    _setup_logging()
    try:
        # A tiny temperature or logits near the float range overflow to -inf
        # before exp(), which maps them to mass 0 as intended: not worth a warning.
        with np.errstate(over="ignore"):
            return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: train, generate, sweep, simulate.

Every command is deterministic given its flags (the master seed included);
repeated invocations produce byte-identical stdout and artifacts.  Exit
codes are a stable contract: 0 success, 2 usage or configuration error,
3 data-format error (e.g. a model file with the wrong format version).

Each parameter is declared once, in ``_PARAMS``, with its type, default
and help text; its flag (``--max-len``), its config-file key (``max_len``)
and the default shown by ``--help`` all come from that one entry.  Flags
override values from an optional JSON config file (``--config``), which in
turn override the defaults.  The file is read by ``jsonvalues.load``, as the
model file is, and a config value must have its flag's JSON kind, checked
by ``jsonvalues`` as the model and trace readers check theirs: an
integer for an integer flag, any number for a float flag, a string for a
text flag and a non-empty list of those for a grid flag.  The only
environment variable read is ``DECODELAB_LOG`` (debug/info/warning/error),
controlling log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import logging
import os
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import jsonvalues
from .autoregress import DEFAULT_CAPACITY, generate
from .framesim import build_world, frame_to_pgm, k_sweep, novelty_curve, random_frame
from .ngram import ModelFormatError, NGramModel, _token_array, detokenize, tokenize, train_ngram
from .probcore import entropy
from .sampler import SamplerConfig, derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3

SWEEP_CSV_HEADER = ["run_id", "T", "k", "top_p", "min_p", "seed", "mean_entropy", "mean_survivors_final", "output_text"]
SIM_CSV_HEADER = ["k", "trial", "freeze_index", "mean_novelty"]

log = logging.getLogger("decodelab")

#: ``_PARAMS[command][key] = (type, default, help)``.  A list default marks a
#: grid flag that takes one or more values of ``type``; a None default marks
#: a flag that is unset unless given.
_PARAMS: dict[str, dict[str, tuple[type, object, str]]] = {
    "train": {
        "order": (int, 4, "n-gram order"),
        "alpha": (float, 0.1, "additive smoothing"),
    },
    "generate": {
        "prompt": (str, "", "prompt text"),
        "temp": (float, 0.8, "softmax temperature; 0 means argmax mode"),
        "top_k": (int, 40, "top-k survivors"),
        "top_p": (float, 0.95, "top-p cumulative mass"),
        "min_p": (float, 0.0, "absolute min-p floor"),
        "seed": (int, 0, "64-bit seed"),
        "max_len": (int, 200, "maximum tokens to emit"),
        "context": (int, DEFAULT_CAPACITY, "context window capacity"),
        "trace_out": (str, None, "write per-token sampling traces to this JSON file"),
    },
    "sweep": {
        "prompt": (str, "", "prompt text"),
        "temps": (float, [0.8], "temperature grid"),
        "top_ks": (int, [40], "top-k grid"),
        "top_ps": (float, [0.95], "top-p grid"),
        "min_ps": (float, [0.0, 0.06, 0.15], "min-p grid"),
        "seed": (int, 0, "master seed; per-row seeds are derived from it"),
        "max_len": (int, 120, "maximum tokens per row"),
        "context": (int, DEFAULT_CAPACITY, "context window capacity"),
        "csv_out": (str, None, "output CSV path (required)"),
    },
    "simulate": {
        "height": (int, 8, "grid height in patches"),
        "width": (int, 8, "grid width in patches"),
        "vocab": (int, 16, "patch-token vocabulary size"),
        "stay_mass": (float, 0.9, "conditional mass on repeating a patch"),
        "k_grid": (int, [1, 50, 200, 500], "top-k sweep values"),
        "steps": (int, 20, "rollout length in predicted frames"),
        "trials": (int, 3, "rollouts per k"),
        "seed": (int, 0, "master seed"),
        "csv_out": (str, None, "output CSV path (required)"),
        "frames_out": (str, None, "directory for PGM dumps of each k's first trial"),
    },
}


def _grid_rows(p: dict) -> int:
    return len(p["temps"]) * len(p["top_ks"]) * len(p["top_ps"]) * len(p["min_ps"])


#: ``_SIZE_CAPS[command] = [(what, size, cap), ...]``: the largest sizes a run
#: may request, checked once all values are merged and before anything is
#: allocated; a size above its cap is a usage error (exit 2).  Training runs
#: one counting pass per order.  A generated token keeps its sampling trace
#: (a few KB) until the command ends, and a sweep runs every grid row.
#: ``simulate`` steps its rollouts in lock-step, in batches whose staging
#: call holds a few ``(rows, vocab)`` float64 arrays of at most 2^20 cells
#: (``framesim._CELLS_PER_CALL``), the cells of one frame step at the
#: ``height * width * vocab`` cap; the sweep's patch-context memo keeps at
#: most as many cells of staged rows, and every predicted frame of the
#: sweep is kept until the CSV is written.
_SIZE_CAPS: dict[str, list[tuple[str, Callable[[dict], int], int]]] = {
    "train": [
        ("order", lambda p: p["order"], 32),
    ],
    "generate": [
        ("max_len", lambda p: p["max_len"], 10_000),
    ],
    "sweep": [
        ("max_len", lambda p: p["max_len"], 10_000),
        ("the number of grid rows", _grid_rows, 4_096),
        ("grid rows * max_len", lambda p: _grid_rows(p) * p["max_len"], 2**22),
    ],
    "simulate": [
        ("height * width * vocab", lambda p: p["height"] * p["width"] * p["vocab"], 2**20),
        ("steps", lambda p: p["steps"], 10_000),
        ("trials", lambda p: p["trials"], 1_000),
        ("the number of k values", lambda p: len(p["k_grid"]), 64),
        (
            "k values * trials * steps * height * width",
            lambda p: len(p["k_grid"]) * p["trials"] * p["steps"] * p["height"] * p["width"],
            2**22,
        ),
    ],
}

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _shown(default) -> str:
    if isinstance(default, list):
        return " ".join(_shown(v) for v in default)
    return f"{default:g}" if isinstance(default, float) else repr(default)


def _config_value(key: str, typ: type, default, value):
    """A config file's ``value`` for ``key``, checked against its flag's type and converted."""
    if value is None and default is None:
        return None
    kind = {int: jsonvalues.INTEGER, float: jsonvalues.NUMBER, str: jsonvalues.STRING}[typ]
    name = f"config key '{key}'"
    if not isinstance(default, list):
        return jsonvalues.value(value, kind, name)
    if value == []:
        raise ValueError(f"{name} must be a non-empty list")
    return jsonvalues.values(value, kind, name)


def _merged_params(args: argparse.Namespace, command: str) -> dict:
    """Table defaults, overridden by the JSON config file, overridden by flags,
    then checked against the command's size caps."""
    params = _PARAMS[command]
    merged = {key: default for key, (_, default, _) in params.items()}
    if args.config is not None:
        doc = jsonvalues.value(jsonvalues.load(args.config, "config file"), jsonvalues.OBJECT, "config file")
        unknown = sorted(set(doc) - set(params))
        if unknown:
            listed = jsonvalues.cut(", " + key if i else key for i, key in enumerate(unknown))
            raise ValueError(f"config file has unknown keys for '{command}': {listed}")
        for key, value in doc.items():
            typ, default, _ = params[key]
            merged[key] = _config_value(key, typ, default, value)
    for key in params:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    for what, size, cap in _SIZE_CAPS.get(command, ()):
        if size(merged) > cap:
            raise ValueError(f"{what} is {size(merged)}, above the cap of {cap}")
    return merged


def _require(params: dict, key: str) -> object:
    value = params[key]
    if value is None:
        raise ValueError(f"{key} is required (flag {_flag(key)} or config key '{key}')")
    return value


@contextlib.contextmanager
def _phase(name: str):
    """Log, at debug level, the seconds that the block named ``name`` took."""
    start = time.perf_counter()
    yield
    log.debug("%s took %.6f s", name, time.perf_counter() - start)


def cmd_train(args: argparse.Namespace) -> int:
    p = _merged_params(args, "train")
    with _phase("train: read"):
        corpus = _token_array(Path(args.corpus).read_text(encoding="utf-8"))
    with _phase("train: train"):
        model = train_ngram(corpus, order=p["order"], alpha=p["alpha"])
    n_tokens = len(corpus)
    del corpus  # corpus-sized: not held while the model is written
    with _phase("train: write"):
        model.save(args.model_out)
    log.info("trained order-%d model from %s", model.order, args.corpus)
    print(f"tokens={n_tokens} contexts={model.context_count()}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    p = _merged_params(args, "generate")
    with _phase("generate: load"):
        model = NGramModel.load(args.model)
    cfg = SamplerConfig(p["temp"], p["top_k"], p["top_p"], p["min_p"], p["seed"])
    with _phase("generate: sample"):
        prompt = tokenize(p["prompt"], model.alphabet)
        result = generate(model, cfg, prompt, max_len=p["max_len"], capacity=p["context"])
    with _phase("generate: write"):
        print(detokenize(result.output_tokens, model.alphabet))
        if p["trace_out"] is not None:
            result.save(p["trace_out"], model.alphabet)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    p = _merged_params(args, "sweep")
    csv_out = _require(p, "csv_out")
    with _phase("sweep: load"):
        model = NGramModel.load(args.model)
    with _phase("sweep: sample"):
        prompt = tokenize(p["prompt"], model.alphabet)
        grid = list(itertools.product(p["temps"], p["top_ks"], p["top_ps"], p["min_ps"]))
        # Every row's config is built, and so checked, before the first row runs.
        cfgs = [SamplerConfig(*values, derive_seed(p["seed"], run_id)) for run_id, values in enumerate(grid)]
        rows = []
        for run_id, ((temp, k, top_p, min_p), cfg) in enumerate(zip(grid, cfgs)):
            result = generate(model, cfg, prompt, max_len=p["max_len"], capacity=p["context"])
            finals = [t.final for t in result.traces]
            # Tokens drawn from one memoized pair share its final record: take its entropy once.
            distinct = {id(f): f for f in finals}
            entropies = {key: entropy(f) for key, f in distinct.items()}
            mean_entropy = float(np.mean([entropies[id(f)] for f in finals]))
            mean_survivors = float(np.mean([f.survivor_count for f in finals]))
            output_text = detokenize(result.output_tokens, model.alphabet)
            rows.append([run_id, temp, k, top_p, min_p, cfg.seed, mean_entropy, mean_survivors, output_text])
    with _phase("sweep: write"):
        _write_csv(csv_out, SWEEP_CSV_HEADER, rows)
        print(f"rows={len(rows)} csv={csv_out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    p = _merged_params(args, "simulate")
    csv_out = _require(p, "csv_out")
    height, width, vocab, master_seed = p["height"], p["width"], p["vocab"], p["seed"]

    with _phase("simulate: sample"):
        world = build_world(height, width, vocab, p["stay_mass"], seed=derive_seed(master_seed, 0))
        prompt = random_frame(height, width, vocab, seed=derive_seed(master_seed, 1))
        entries = k_sweep(
            world, prompt, SamplerConfig(1.0, 1), p["k_grid"], steps=p["steps"], trials=p["trials"],
            master_seed=derive_seed(master_seed, 2),
        )

    with _phase("simulate: write"):
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
    model_arg = ("model", "path to a model JSON document")
    # Looked up on each call, not at import, so the command functions can be swapped.
    commands = {
        "train": (
            cmd_train, "train a character n-gram model from a UTF-8 corpus",
            [("corpus", "path to a UTF-8 plain-text corpus"), ("model_out", "path for the model JSON document")],
        ),
        "generate": (cmd_generate, "generate text from a trained model", [model_arg]),
        "sweep": (cmd_sweep, "cross-product hyperparameter sweep, one CSV row per grid point", [model_arg]),
        "simulate": (cmd_simulate, "frame-simulator top-k sweep: rollouts, freeze detection, novelty CSV", []),
    }
    for command, (func, summary, positionals) in commands.items():
        cmd = sub.add_parser(command, help=summary)
        for name, text in positionals:
            cmd.add_argument(name, help=text)
        for key, (typ, default, text) in _PARAMS[command].items():
            if default is not None:
                text += f" (default: {_shown(default)})"
            nargs = "+" if isinstance(default, list) else None
            cmd.add_argument(_flag(key), type=typ, nargs=nargs, default=None, help=text)
        cmd.add_argument("--config", default=None, help="JSON config file; flags override it")
        cmd.set_defaults(func=func)
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

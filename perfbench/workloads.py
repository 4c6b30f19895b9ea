"""The three workloads: set-up, one round of timed CLI commands, and its checks.

A worker process runs the rounds: each drives ``decodelab.cli.main(argv)``
in-process, one command at a time (a closed loop with one caller), times
each command with ``time.perf_counter`` and moves the command's output files
into a directory of their own.  The checks run later in the parent process,
so the worker's peak memory is the program's and not the oracles'.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import inputs
import oracles


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """``decodelab.cli.main(argv)`` with stdout captured; (exit code, seconds, stdout)."""
    from decodelab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def _grid_flags(flag: str, values) -> list[str]:
    return [flag, *(repr(v) for v in values)]


class Workload:
    """Shared plumbing.  A round record is ``{"round", "dir", "ops", "tokens",
    "frames"}``; each op is ``[command, seconds, exit code, stdout]``."""

    name = ""
    params: dict = {}
    sampling_command = ""
    outputs: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.prompt = inputs.prompt(seed)

    def setup(self) -> None:
        """Inputs the program reads, made in the worker before its first round."""
        (self.work / "corpus.txt").write_text(inputs.corpus(self.seed, self.params["corpus_chars"]),
                                              encoding="utf-8")

    def prepare_checks(self) -> None:
        """Window counts of the same corpus for the checks, made in the parent."""
        p = self.params
        self.counts = oracles.WindowCounts(inputs.corpus(self.seed, p["corpus_chars"]), p["order"], p["alpha"])

    def _train(self) -> tuple[int, float, str]:
        p = self.params
        return run_cli(["train", str(self.work / "corpus.txt"), str(self.work / "model.json"),
                        "--order", str(p["order"]), "--alpha", repr(p["alpha"])])

    def _keep(self, r: int, tag: str) -> str:
        """Move this round's output files into their own directory."""
        name = f"round-{r}-{tag}"
        keep = self.work / name
        keep.mkdir()
        for out in self.outputs:
            if (self.work / out).exists():
                (self.work / out).rename(keep / out)
        return name


class TextSweep(Workload):
    """``decodelab sweep`` over a T x k x top_p x min_p grid on a trained model."""

    name = "text_sweep"
    params = inputs.TEXT_SWEEP
    sampling_command = "sweep"
    outputs = ("sweep.csv",)

    def setup(self) -> None:
        super().setup()
        code, _, _ = self._train()
        if code != 0:
            raise RuntimeError(f"set-up train exited {code}")

    def run_round(self, r: int, tag: str) -> dict:
        p = self.params
        code, seconds, stdout = run_cli([
            "sweep", str(self.work / "model.json"), "--prompt", self.prompt,
            *_grid_flags("--temps", p["temps"]), *_grid_flags("--top-ks", p["top_ks"]),
            *_grid_flags("--top-ps", p["top_ps"]), *_grid_flags("--min-ps", p["min_ps"]),
            "--seed", str(inputs.round_seed(self.seed, r)), "--max-len", str(p["max_len"]),
            "--csv-out", str(self.work / "sweep.csv")])
        tokens = 0
        if code == 0:
            rows = list(csv.reader(io.StringIO((self.work / "sweep.csv").read_text(encoding="utf-8"))))
            tokens = sum(len(row[-1]) for row in rows[1:])
        return {"round": r, "dir": self._keep(r, tag), "ops": [["sweep", seconds, code, stdout]],
                "tokens": tokens, "frames": 0}

    def check_round(self, rec: dict) -> tuple[list[list[str]], int]:
        """Errors per op and the number of ambiguous replays."""
        p, r = self.params, rec["round"]
        _, _, code, stdout = rec["ops"][0]
        if code != 0:
            return [[]], 0
        n_rows = len(p["temps"]) * len(p["top_ks"]) * len(p["top_ps"]) * len(p["min_ps"])
        errors, ambiguous = oracles.check_sweep(
            (self.work / rec["dir"] / "sweep.csv").read_text(encoding="utf-8"), stdout,
            str(self.work / "sweep.csv"), master_seed=inputs.round_seed(self.seed, r), grid=p,
            prompt=self.prompt, max_len=p["max_len"], counts=self.counts,
            replay_rows={i for i in range(n_rows) if (i + r) % 4 == 0})
        return [errors], ambiguous


class FrameRollouts(Workload):
    """``decodelab simulate`` at 8x8, V = 16 with a k grid from greedy to V."""

    name = "frame_rollouts"
    params = inputs.FRAME_ROLLOUTS
    sampling_command = "simulate"
    outputs = ("sim.csv", "frames")

    def setup(self) -> None:
        pass

    def prepare_checks(self) -> None:
        pass

    def run_round(self, r: int, tag: str) -> dict:
        p = self.params
        code, seconds, stdout = run_cli([
            "simulate", "--height", str(p["height"]), "--width", str(p["width"]), "--vocab", str(p["vocab"]),
            *_grid_flags("--k-grid", p["k_grid"]), "--steps", str(p["steps"]), "--trials", str(p["trials"]),
            "--seed", str(inputs.round_seed(self.seed, r)), "--csv-out", str(self.work / "sim.csv"),
            "--frames-out", str(self.work / "frames")])
        frames = len(p["k_grid"]) * p["trials"] * p["steps"]
        return {"round": r, "dir": self._keep(r, tag), "ops": [["simulate", seconds, code, stdout]],
                "tokens": frames * p["height"] * p["width"], "frames": frames}

    def check_round(self, rec: dict) -> tuple[list[list[str]], int]:
        p = self.params
        _, _, code, stdout = rec["ops"][0]
        if code != 0:
            return [[]], 0
        keep = self.work / rec["dir"]
        return [oracles.check_simulate(
            (keep / "sim.csv").read_text(encoding="utf-8"), stdout, str(self.work / "sim.csv"), keep / "frames",
            master_seed=inputs.round_seed(self.seed, rec["round"]), ks=p["k_grid"], steps=p["steps"],
            trials=p["trials"], height=p["height"], width=p["width"], vocab=p["vocab"])], 0


class TrainGenerate(Workload):
    """``decodelab train`` at order 5, then one long ``generate --trace-out``."""

    name = "train_generate"
    params = inputs.TRAIN_GENERATE
    sampling_command = "generate"
    outputs = ("model.json", "trace.json")

    def run_round(self, r: int, tag: str) -> dict:
        p = self.params
        train = self._train()
        gen = run_cli(["generate", str(self.work / "model.json"), "--prompt", self.prompt, "--temp", repr(p["temp"]),
                       "--top-k", str(p["top_k"]), "--top-p", repr(p["top_p"]), "--min-p", repr(p["min_p"]),
                       "--seed", str(inputs.round_seed(self.seed, r)), "--max-len", str(p["max_len"]),
                       "--trace-out", str(self.work / "trace.json")])
        # generate prints the text and a newline; every token is one character
        return {"round": r, "dir": self._keep(r, tag),
                "ops": [["train", train[1], train[0], train[2]], ["generate", gen[1], gen[0], gen[2]]],
                "tokens": len(gen[2].rstrip("\n")), "frames": 0}

    def check_round(self, rec: dict) -> tuple[list[list[str]], int]:
        p = self.params
        keep = self.work / rec["dir"]
        (_, _, train_code, train_out), (_, _, gen_code, gen_out) = rec["ops"]
        train_errors, gen_errors, ambiguous = [], [], 0
        if train_code == 0:
            model = json.loads((keep / "model.json").read_text(encoding="utf-8"))
            train_errors = oracles.check_train(train_out, model, counts=self.counts, n_tokens=p["corpus_chars"])
        if gen_code == 0:
            doc = json.loads((keep / "trace.json").read_text(encoding="utf-8"))
            gen_errors, ambiguous = oracles.check_generate(
                gen_out, doc, counts=self.counts, prompt=self.prompt, temperature=p["temp"], k=p["top_k"],
                top_p=p["top_p"], min_p=p["min_p"], seed=inputs.round_seed(self.seed, rec["round"]),
                max_len=p["max_len"])
        return [train_errors, gen_errors], ambiguous


WORKLOADS = {w.name: w for w in (TextSweep, FrameRollouts, TrainGenerate)}

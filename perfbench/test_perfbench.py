"""Tests of the benchmark's own parts: the oracles must accept the program's
real output and reject tampered output, and the tracer must leave the
program as it found it.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the root.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
from workloads import run_cli  # noqa: E402

CORPUS = ("the cat sat on the mat, the dog ate 42 figs. a cat and a dog met on a log. " * 40)
GRID = {"temps": [0.0, 0.7, 1.5], "top_ks": [5, 40], "top_ps": [0.92, 1.0], "min_ps": [0.0, 0.05]}


def _flip(text: str, i: int) -> str:
    return text[:i] + ("a" if text[i] != "a" else "b") + text[i + 1:]


def test_reference_sampler_reproduces_the_golden_vector():
    # Criterion 5's vector: sorted rank i carries logit 2.2 - 0.18 i, scattered over token ids.
    perm = [17, 3, 29, 8, 35, 12, 0, 24, 39, 6, 21, 14, 31, 2, 27, 10, 37, 19, 5, 33,
            16, 1, 25, 9, 36, 13, 30, 4, 22, 38, 7, 20, 15, 32, 11, 28, 18, 34, 26, 23]
    z = [0.0] * 40
    for rank, token in enumerate(perm):
        z[token] = 2.2 - 0.18 * rank
    u = oracles.philox_uniforms(5, 1)[0]
    token, stages = oracles.reference_sample(z, 0.8, 20, 0.95, 0.05, u)
    assert [len(m) for m, _ in stages] == [40, 20, 13, 7]
    assert stages[1][1] == perm[:20]
    assert sorted(stages[3][0])[-1] == pytest.approx(0.2540803281567827, abs=1e-12)
    assert token in perm[:7]


def test_reference_sampler_edge_rules():
    z = [0.0, 0.0, math.log(0.5), -50.0]
    # argmax ties go to the lowest index; T = 0 draws nothing
    assert oracles.reference_sample(z, 0.0, 4, 1.0, 0.0, None)[0] == 0
    # min-p keeps the largest entry (lowest index on ties) when nothing reaches the floor
    token, stages = oracles.reference_sample([0.0] * 4, 1.0, 4, 1.0, 0.5, 0.9)
    assert (token, stages[-1]) == (0, ([1.0], [0]))
    # a uniform on a CDF boundary is ambiguous, not a verdict
    with pytest.raises(oracles.Ambiguous):
        oracles.reference_sample([0.0] * 4, 1.0, 4, 1.0, 0.0, 0.5)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    (work / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    code, _, stdout = run_cli(["train", str(work / "corpus.txt"), str(work / "model.json"),
                               "--order", "3", "--alpha", "0.1"])
    assert code == 0
    return work, stdout, oracles.WindowCounts(CORPUS, 3, 0.1)


def test_train_oracle_accepts_real_counts_and_rejects_an_altered_count(trained):
    work, stdout, counts = trained
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    assert oracles.check_train(stdout, model, counts=counts, n_tokens=len(CORPUS)) == []
    level = model["counts"]["3"]
    key = sorted(level)[0]
    tok = sorted(level[key])[0]
    level[key][tok] += 1
    assert oracles.check_train(stdout, model, counts=counts, n_tokens=len(CORPUS))


def _sweep(work: Path, seed: int) -> tuple[str, str, str]:
    csv_path = str(work / "sweep.csv")
    argv = ["sweep", str(work / "model.json"), "--prompt", "the ", "--seed", str(seed), "--max-len", "40",
            "--csv-out", csv_path]
    for flag, key in (("--temps", "temps"), ("--top-ks", "top_ks"), ("--top-ps", "top_ps"), ("--min-ps", "min_ps")):
        argv += [flag, *(repr(v) for v in GRID[key])]
    code, _, stdout = run_cli(argv)
    assert code == 0
    return Path(csv_path).read_text(encoding="utf-8"), stdout, csv_path


def test_sweep_oracle_accepts_real_rows_and_rejects_tampering(trained):
    work, _, counts = trained
    csv_text, stdout, csv_path = _sweep(work, 11)
    rows = list(csv.reader(io.StringIO(csv_text)))
    every_row = set(range(len(rows) - 1))

    def check(text):
        return oracles.check_sweep(text, stdout, csv_path, master_seed=11, grid=GRID, prompt="the ", max_len=40,
                                   counts=counts, replay_rows=every_row)

    assert check(csv_text) == ([], 0)

    def edited(row: int, col: int, value: str) -> str:
        changed = [list(r) for r in rows]
        changed[row + 1][col] = value
        out = io.StringIO()
        csv.writer(out).writerows(changed)
        return out.getvalue()

    text_row = next(i for i, r in enumerate(rows[1:]) if float(r[1]) > 0)
    assert check(edited(text_row, 8, _flip(rows[text_row + 1][8], 3)))[0]  # a flipped token
    assert check(edited(0, 5, str(int(rows[1][5]) + 1)))[0]  # a row seed
    assert check(edited(2, 6, "9.0"))[0]  # mean_entropy above ln(survivors)
    assert check(edited(4, 7, repr(float(rows[5][7]) + 1.0)))[0]  # survivor mean


def test_generate_oracle_accepts_a_real_trace_and_rejects_tampering(trained):
    work, _, counts = trained
    trace_path = work / "trace.json"
    code, _, stdout = run_cli(["generate", str(work / "model.json"), "--prompt", "a cat", "--temp", "1.0",
                               "--top-k", "12", "--top-p", "0.95", "--min-p", "0.02", "--seed", "99",
                               "--max-len", "60", "--trace-out", str(trace_path)])
    assert code == 0
    doc = json.loads(trace_path.read_text(encoding="utf-8"))

    def check(d, out=stdout):
        return oracles.check_generate(out, d, counts=counts, prompt="a cat", temperature=1.0, k=12, top_p=0.95,
                                      min_p=0.02, seed=99, max_len=60)

    assert check(doc) == ([], 0)
    flipped = dict(doc, output=_flip(doc["output"], 10))
    assert check(flipped, flipped["output"] + "\n")[0]  # a flipped token
    bad_u = json.loads(json.dumps(doc))
    bad_u["traces"][3]["drawn_uniform"] = 0.5
    assert check(bad_u)[0]
    bad_mass = json.loads(json.dumps(doc))
    bad_mass["traces"][5]["stages"][0]["masses"][0] += 1e-6
    assert check(bad_mass)[0]


def test_simulate_oracle_accepts_real_rollouts_and_rejects_tampering(tmp_path):
    frames = tmp_path / "frames"
    csv_path = str(tmp_path / "sim.csv")
    code, _, stdout = run_cli(["simulate", "--k-grid", "1", "4", "16", "--steps", "6", "--trials", "4",
                               "--seed", "5", "--csv-out", csv_path, "--frames-out", str(frames)])
    assert code == 0
    csv_text = Path(csv_path).read_text(encoding="utf-8")

    def check(text):
        return oracles.check_simulate(text, stdout, csv_path, frames, master_seed=5, ks=[1, 4, 16], steps=6,
                                      trials=4, height=8, width=8, vocab=16)

    assert check(csv_text) == []
    lines = csv_text.splitlines()
    lines[1] = "1,0,1,0.015625"  # k=1 must not move
    assert check("\n".join(lines) + "\n")
    lines = csv_text.splitlines()
    k16 = lines[9].split(",")
    lines[9] = ",".join(k16[:3] + [repr(float(k16[3]) + 0.01)])  # trial 0 of k=16 no longer matches its frames
    assert check("\n".join(lines) + "\n")
    # Change a patch of the last frame that repeated its predecessor: the
    # last step's novelty, and so the trial's mean, must move.
    prev = (frames / "k16_t0_f005.pgm").read_bytes()
    pgm = frames / "k16_t0_f006.pgm"
    blob = bytearray(pgm.read_bytes())
    pos = next(i for i in range(len(blob) - 64, len(blob)) if blob[i] == prev[i])
    blob[pos] = (blob[pos] + 17) % 272  # next gray level; 255 wraps to 0
    pgm.write_bytes(bytes(blob))
    assert check(csv_text)


def test_tracer_restores_the_program_and_accounts_for_its_time(trained):
    work, _, _ = trained
    from decodelab import cli, ngram, sampler

    before = (cli.cmd_sweep, sampler.softmax, ngram.NGramModel.__dict__["load"], sampler.RandomStream.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        csv_text, _, _ = _sweep(work, 3)
    finally:
        t.uninstall()
    assert (cli.cmd_sweep, sampler.softmax, ngram.NGramModel.__dict__["load"], sampler.RandomStream.__init__) == before
    s = t.summary()
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    tokens = sum(len(r[8]) for r in rows)
    assert s["cli.cmd_sweep.calls"] == 1 and s["ngram.NGramModel.load.calls"] == 1
    assert s["autoregress.generate.calls"] == s["sampler.RandomStream.calls"] == len(rows)
    assert s["sampler.run_pipeline.calls"] == s["ngram.NGramModel.logits_for.calls"] == tokens
    assert s["framesim.predict_frame.calls"] == 0
    root = [sp for sp in t.spans if sp[3] == -1]
    wall = sum(e - b for _, b, e, _ in root)
    self_total = sum(v for k, v in s.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(wall, rel=1e-9)
    assert 0.0 < s["sampler.noop_stage_ratio"] < 1.0
    assert 0.0 < s["ngram.logits_for.distinct_ratio"] <= 1.0

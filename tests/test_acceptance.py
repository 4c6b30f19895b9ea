"""End-to-end acceptance gate.

Ten behavioral criteria covering the sampling pipeline, the n-gram text
model, the autoregressive feedback loop, the frame simulator, and CLI
determinism.  Each test carries a ``criterion`` marker; the run summary
prints one PASS/FAIL line per criterion.

Frozen constants come from independent oracles noted inline: 60-digit
decimal arithmetic for the golden vector, hand counts for the n-gram
probabilities, and binomial error analysis for the statistical bars.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from decodelab import (
    RandomStream,
    SamplerConfig,
    build_world,
    default_alphabet,
    derive_seed,
    entropy,
    generate,
    k_sweep,
    novelty_curve,
    random_frame,
    rollout,
    run_pipeline,
    sample_rows,
    softmax,
    tokenize,
    train_ngram,
)

ROOT = Path(__file__).resolve().parents[1]
D = 40


@pytest.mark.criterion(1, "pipeline conformance: 1000 logit vectors x 100 configs, trace invariants, < 10 s")
def test_pipeline_conformance_suite():
    vectors = Generator(Philox(1001)).normal(0.0, 3.0, (1000, D))
    g = Generator(Philox(1002))
    configs = [
        SamplerConfig(
            temperature=float(g.uniform(0.05, 4.0)),
            top_k=int(g.integers(1, D + 1)),
            top_p=float(g.uniform(0.05, 1.0)),
            min_p=float(g.uniform(0.0, 0.5)),
            seed=int(g.integers(0, 2**63)),
        )
        for _ in range(100)
    ]
    start = time.perf_counter()
    for z in vectors:
        best = int(np.argmax(z))
        for cfg in configs:
            _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
            counts = [s.survivor_count for s in trace.stages]
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            for stage in trace.stages:
                assert abs(stage.masses.sum() - 1.0) <= 1e-9
            assert best in trace.stages[-1].index_map
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"conformance suite took {elapsed:.2f}s"


@pytest.mark.criterion(2, "argmax equivalence: k=1, min_p=0.99, T=0 all return argmax, 500 vectors x 50 seeds")
def test_argmax_equivalence_triple():
    vectors = Generator(Philox(22)).normal(0.0, 2.0, (500, D))
    modes = (
        SamplerConfig(1.0, 1, 1.0, 0.0),
        SamplerConfig(1.0, D, 1.0, 0.99),
        SamplerConfig(0.0, D, 1.0, 0.0),
    )
    for z in vectors:
        best = int(np.argmax(z))
        for seed in range(50):
            for mode in modes:
                cfg = replace(mode, seed=seed)
                token, _ = run_pipeline(z, cfg, RandomStream(cfg.seed), want_trace=False)
                assert token == best


@pytest.mark.criterion(3, "sampling fidelity: 100k draws vs final-stage distribution, TVD <= 0.01, < 5 s")
def test_sampling_fidelity():
    z = Generator(Philox(123)).normal(0.0, 2.0, D)
    cfg = SamplerConfig(0.8, 40, 0.95, 0.0, seed=2024)
    _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
    rows = np.tile(z, (10_000, 1))
    start = time.perf_counter()
    counts = np.zeros(D)
    rng = RandomStream(cfg.seed)
    for _ in range(10):  # each row's token is the final stage's draw at the stream's next uniform
        tokens, _ = sample_rows(rows, cfg, rng.next_uniforms(10_000), want_traces=False)
        counts += np.bincount(tokens, minlength=D)
    elapsed = time.perf_counter() - start
    tvd = 0.5 * np.abs(counts / 100_000.0 - trace.final.dense(D)).sum()
    assert tvd <= 0.01, f"TVD {tvd:.4f}"
    assert elapsed < 5.0, f"100k draws took {elapsed:.2f}s"


@pytest.mark.criterion(4, "entropy strictly increases over T in {0.25, 0.5, 1, 2, 4}")
def test_entropy_monotone_in_temperature():
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    vectors = Generator(Philox(44)).normal(0.0, 2.0, (100, D))
    for z in vectors:
        assert np.ptp(z) >= 0.1
        series = [entropy(softmax(z, t)) for t in grid]
        for lo, hi in zip(series, series[1:]):
            assert hi - lo > 1e-9


@pytest.mark.criterion(5, "golden vector: k=20 / top_p=0.95 / min_p=0.05 survivor counts match an independent oracle")
def test_golden_vector_against_prefix_sum_oracle():
    # sorted-rank i carries logit 2.2 - 0.18*i; a fixed shuffle scatters the
    # ranks over token ids so index bookkeeping is exercised too
    perm = [17, 3, 29, 8, 35, 12, 0, 24, 39, 6, 21, 14, 31, 2, 27, 10, 37, 19, 5, 33,
            16, 1, 25, 9, 36, 13, 30, 4, 22, 38, 7, 20, 15, 32, 11, 28, 18, 34, 26, 23]
    z = np.empty(D)
    for rank, token in enumerate(perm):
        z[token] = 2.2 - 0.18 * rank
    cfg = SamplerConfig(0.8, 20, 0.95, 0.05, seed=5)

    # independent oracle: plain-Python softmax, prefix-sum cut, threshold scan
    exps = [math.exp(v / cfg.temperature) for v in z]
    total = math.fsum(exps)
    masses = sorted((e / total for e in exps), reverse=True)
    kept = masses[: cfg.top_k]
    kept = [m / math.fsum(kept) for m in kept]
    running, cut = 0.0, None
    for j, m in enumerate(kept):
        running += m
        if running >= cfg.top_p:
            cut = j + 1
            break
    nucleus = kept[:cut]
    nucleus = [m / math.fsum(nucleus) for m in nucleus]
    oracle_counts = (D, cfg.top_k, cut, sum(1 for m in nucleus if m >= cfg.min_p))

    # frozen 60-digit decimal oracle; closest stage margin is about 5e-3
    assert oracle_counts == (40, 20, 13, 7)

    _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
    assert tuple(s.survivor_count for s in trace.stages) == oracle_counts
    np.testing.assert_array_equal(trace.stages[1].index_map, perm[:20])
    assert trace.final.masses[0] == pytest.approx(0.2540803281567827, abs=1e-12)


@pytest.mark.criterion(6, "n-gram hand counts: P(b|a)=1 unsmoothed, 3/42 with alpha=1 over 40 symbols")
def test_ngram_hand_count_oracle():
    alphabet = default_alphabet()
    a, b = alphabet.index_of("a"), alphabet.index_of("b")
    corpus = tokenize("abab")
    unsmoothed = train_ngram(corpus, order=2, alpha=0.0)
    assert unsmoothed.conditional((a,))[b] == 1.0
    smoothed = train_ngram(corpus, order=2, alpha=1.0)
    assert abs(smoothed.conditional((a,))[b] - 3.0 / 42.0) <= 1e-12


@pytest.mark.criterion(7, "feedback contract: prompts differing in the final token change the next distribution")
def test_feedback_contract():
    alphabet = default_alphabet()
    a, b, c = alphabet.index_of("a"), alphabet.index_of("b"), alphabet.index_of("c")
    model = train_ngram(tokenize("aa bb"), order=2, alpha=0.1)
    cfg = SamplerConfig(1.0, D, 1.0, 0.0, seed=0)
    ends_a = generate(model, cfg, (c, a), max_len=1)
    ends_b = generate(model, cfg, (c, b), max_len=1)
    d_a = ends_a.traces[0].final.dense(D)
    d_b = ends_b.traces[0].final.dense(D)
    assert np.abs(d_a - d_b).max() > 1e-6


@pytest.mark.criterion(8, "freeze theorem: k=1 on 100 seeded 8x8 V=16 worlds, 20 steps, freeze at 1, < 10 s")
def test_freeze_theorem():
    cfg = SamplerConfig(1.0, 1, 1.0, 0.0, seed=0)
    start = time.perf_counter()
    for i in range(100):
        world = build_world(8, 8, 16, 0.9, seed=derive_seed(81, 2 * i))
        prompt = random_frame(8, 8, 16, seed=derive_seed(81, 2 * i + 1))
        roll = rollout(world, prompt, replace(cfg, seed=i), steps=20)
        assert roll.freeze_index == 1
        assert np.all(roll.novelty == 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"100 rollouts took {elapsed:.2f}s"


@pytest.mark.criterion(9, "novelty growth: mean novelty non-decreasing over k in {1,2,4,8,16} within 2 sigma")
def test_novelty_growth():
    world = build_world(8, 8, 16, 0.9, seed=derive_seed(91, 0))
    prompt = random_frame(8, 8, 16, seed=derive_seed(91, 1))
    ks = [1, 2, 4, 8, 16]
    steps, trials = 5, 100
    entries = k_sweep(
        world, prompt, SamplerConfig(1.0, 1), ks, steps=steps, trials=trials,
        master_seed=derive_seed(91, 2),
    )
    curve = novelty_curve(entries)
    assert [k for k, _ in curve] == ks
    means = [m for _, m in curve]
    assert means[0] == 0.0
    n = 64 * steps * trials
    sigmas = [math.sqrt(max(m * (1.0 - m), 1e-12) / n) for m in means]
    for i in range(len(means) - 1):
        assert means[i + 1] >= means[i] - 2.0 * (sigmas[i] + sigmas[i + 1])


@pytest.mark.criterion(10, "CLI determinism: generate and simulate are byte-identical across reruns")
def test_cli_end_to_end_determinism(tmp_path):
    # The child imports decodelab from this tree's src, as the test process does.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "decodelab.cli", *args],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat. the cat ate the rat.\n", encoding="utf-8")
    model = tmp_path / "model.json"
    cli("train", str(corpus), str(model), "--order", "3", "--alpha", "0.1")

    # Both passes rerun the exact same argv; artifact bytes are snapshotted
    # between passes so the second run genuinely overwrites the first.
    trace = tmp_path / "trace.json"
    gen_args = (
        "generate", str(model), "--prompt", "the cat", "--seed", "13",
        "--max-len", "40", "--trace-out", str(trace),
    )
    gen_outputs, trace_blobs = [], []
    for _ in range(2):
        gen_outputs.append(cli(*gen_args))
        trace_blobs.append(trace.read_bytes())
    assert gen_outputs[0] == gen_outputs[1]
    assert trace_blobs[0] == trace_blobs[1]

    csv_path = tmp_path / "sim.csv"
    frames_dir = tmp_path / "frames"
    sim_args = (
        "simulate", "--k-grid", "1", "8", "16", "--steps", "4", "--trials", "2",
        "--seed", "3", "--csv-out", str(csv_path), "--frames-out", str(frames_dir),
    )
    sim_outputs, csv_blobs, frame_blobs = [], [], []
    for _ in range(2):
        sim_outputs.append(cli(*sim_args))
        csv_blobs.append(csv_path.read_bytes())
        frame_blobs.append(b"".join(p.read_bytes() for p in sorted(frames_dir.glob("*.pgm"))))
    assert sim_outputs[0] == sim_outputs[1]
    assert csv_blobs[0] == csv_blobs[1]
    assert frame_blobs[0] == frame_blobs[1]

"""Autoregressive loop: bounded context window, feedback, stop conditions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodelab import (
    STOP_EOS,
    STOP_MAX_LEN,
    ContextBuffer,
    RandomStream,
    SamplerConfig,
    default_alphabet,
    detokenize,
    generate,
    replay,
    run_pipeline,
    tokenize,
    train_ngram,
)
from decodelab import sampler
from decodelab.sampler import spell_traces

A = default_alphabet()
a, b, c = A.index_of("a"), A.index_of("b"), A.index_of("c")
K1 = SamplerConfig(1.0, 1, 1.0, 0.0)
NEUTRAL = SamplerConfig(1.0, 40, 1.0, 0.0)


class TestContextBuffer:
    def test_push_evicts_oldest_at_capacity(self):
        buf = ContextBuffer(3, (a, b, c))
        assert buf.push(5).tokens == (b, c, 5)

    def test_push_below_capacity_appends(self):
        assert ContextBuffer(3).push(a).tokens == (a,)

    def test_default_capacity_is_64(self):
        buf = ContextBuffer(64)
        for t in range(100):
            buf = buf.push(t % 40)
        assert len(buf) == 64

    def test_from_tokens_keeps_the_suffix(self):
        buf = ContextBuffer.from_tokens((1, 2, 3, 4, 5), capacity=3)
        assert buf.tokens == (3, 4, 5)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ContextBuffer(0)

    def test_rejects_overfull_construction(self):
        with pytest.raises(ValueError):
            ContextBuffer(1, (a, b))

    @pytest.mark.parametrize("capacity", [2.5, 3.0, True, "3", None])
    def test_refuses_a_capacity_that_is_not_an_integer(self, capacity):
        # 2.5 used to build a 2-token window and True a 1-token one; from_tokens failed in its slice
        message = rf"^capacity must be an integer \(got {re.escape(repr(capacity))}\)$"
        with pytest.raises(ValueError, match=message):
            ContextBuffer(capacity)
        with pytest.raises(ValueError, match=message):
            ContextBuffer.from_tokens([1, 2, 3, 4], capacity)


class TestGenerate:
    def test_cyclic_model_alternates(self):
        # 'a' is always followed by 'b' and vice versa; argmax walks the cycle
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=5)
        assert detokenize(result.output_tokens) == "babab"
        assert result.stop_reason == STOP_MAX_LEN

    def test_eos_stops_generation_and_is_kept(self):
        model = train_ngram(tokenize("ab¶"), order=3, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=50)
        assert result.stop_reason == STOP_EOS
        assert result.output_tokens == (b, A.eos_index)
        assert len(result.traces) == 2

    def test_max_len_one_emits_exactly_one_token(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=1)
        assert len(result.output_tokens) == 1
        assert len(result.traces) == 1

    def test_zero_max_len_rejected(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        with pytest.raises(ValueError):
            generate(model, K1, tokenize("a"), max_len=0)

    @pytest.mark.parametrize("knob, value", [
        ("max_len", True), ("max_len", 2.5), ("max_len", "3"),
        ("capacity", True), ("capacity", 2.5), ("capacity", np.float64(4.0)),
    ])
    def test_non_integer_max_len_or_capacity_rejected(self, knob, value, monkeypatch):
        # A bool reads as 1 and a float would truncate or fail inside the loop,
        # so both are refused before the model is asked for a single token.
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        monkeypatch.setattr("decodelab.autoregress.run_pipeline", None)  # a draw would raise TypeError
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            generate(model, K1, tokenize("a"), **{"max_len": 3, knob: value})

    def test_each_step_sees_previous_emissions(self):
        # order-3 context = last 2 tokens, so step 2 must see step 1's output
        model = train_ngram(tokenize("ab¶"), order=3, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=10)
        assert result.output_tokens[1] == A.eos_index

    def test_deterministic_for_fixed_inputs(self):
        model = train_ngram(tokenize("the cat sat on the mat."), order=3, alpha=0.2)
        cfg = SamplerConfig(0.9, 20, 0.95, 0.02, seed=11)
        r1 = generate(model, cfg, tokenize("the "), max_len=30)
        r2 = generate(model, cfg, tokenize("the "), max_len=30)
        assert r1.output_tokens == r2.output_tokens
        assert spell_traces(r1.traces, 0) == spell_traces(r2.traces, 0)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=12))
    def test_halts_within_max_len_with_matching_traces(self, seed, max_len):
        model = train_ngram(tokenize("to be or not to be.¶"), order=2, alpha=0.3)
        cfg = SamplerConfig(1.2, 40, 0.9, 0.0, seed=seed)
        result = generate(model, cfg, tokenize("to"), max_len=max_len)
        assert 1 <= len(result.output_tokens) <= max_len
        assert len(result.traces) == len(result.output_tokens)
        assert result.stop_reason in (STOP_EOS, STOP_MAX_LEN)
        if result.stop_reason == STOP_EOS:
            assert result.output_tokens[-1] == A.eos_index

    def test_window_limits_what_the_model_sees(self):
        # capacity 2: long prompts sharing a 2-token suffix are indistinguishable
        model = train_ngram(tokenize("the cat sat on the mat. a hat."), order=4, alpha=0.1)
        cfg = SamplerConfig(1.0, 40, 1.0, 0.0, seed=5)
        r1 = generate(model, cfg, tokenize("the cat sat"), max_len=1, capacity=2)
        r2 = generate(model, cfg, tokenize("on the mat"), max_len=1, capacity=2)
        d1 = r1.traces[0].final.dense(40)
        d2 = r2.traces[0].final.dense(40)
        np.testing.assert_array_equal(d1, d2)
        assert r1.output_tokens == r2.output_tokens

    def test_feedback_contract_final_token_changes_next_distribution(self):
        model = train_ngram(tokenize("aa bb"), order=2, alpha=0.1)
        r_a = generate(model, NEUTRAL, (c, a), max_len=1)
        r_b = generate(model, NEUTRAL, (c, b), max_len=1)
        d_a = r_a.traces[0].final.dense(40)
        d_b = r_b.traces[0].final.dense(40)
        assert not np.allclose(d_a, d_b)

    def test_prompt_longer_than_capacity_keeps_suffix(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        long_prompt = tokenize("bbbbbbba")
        result = generate(model, K1, long_prompt, max_len=1, capacity=4)
        assert detokenize(result.output_tokens) == "b"


def unmemoized_generate(model, cfg, prompt, max_len, capacity):
    """generate as a plain per-token loop: every token staged by run_pipeline without a memo."""
    buffer = ContextBuffer.from_tokens(prompt, capacity)
    rng = RandomStream(cfg.seed)
    out, traces = [], []
    for _ in range(max_len):
        token, trace = run_pipeline(model.logits_for(buffer.tokens), cfg, rng)
        out.append(token)
        traces.append(trace)
        buffer = buffer.push(token)
        if token == model.alphabet.eos_index:
            return tuple(out), traces, STOP_EOS
    return tuple(out), traces, STOP_MAX_LEN


# Tiny alphabets and low orders, so that contexts (and so logit vectors) recur.
small_corpora = st.text(alphabet="ab ¶", min_size=3, max_size=24)
memo_configs = st.builds(
    SamplerConfig,
    temperature=st.one_of(st.just(0.0), st.sampled_from([0.3, 1.0, 2.5]), st.floats(min_value=0.05, max_value=5.0)),
    top_k=st.one_of(st.just(1), st.integers(min_value=1, max_value=40)),
    top_p=st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
    min_p=st.one_of(st.sampled_from([0.0, 0.6]), st.floats(min_value=0.0, max_value=0.9)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


class TestMemoizedGenerate:
    """generate stages each recurring (logits, config) pair once; its output must
    be that of the unmemoized per-token loop: tokens, stop reason and trace bytes."""

    @settings(max_examples=150, deadline=None)
    @given(small_corpora, st.integers(min_value=1, max_value=3), st.sampled_from([0.0, 0.05, 1.0]), memo_configs,
           st.text(alphabet="ab ", max_size=4), st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=6))
    def test_matches_the_unmemoized_loop(self, corpus, order, alpha, cfg, prompt, max_len, capacity):
        model = train_ngram(tokenize(corpus), order=order, alpha=alpha)
        result = generate(model, cfg, tokenize(prompt), max_len=max_len, capacity=capacity)
        tokens, traces, stop_reason = unmemoized_generate(model, cfg, tokenize(prompt), max_len, capacity)
        assert (result.output_tokens, result.stop_reason) == (tokens, stop_reason)
        assert spell_traces(result.traces, 1) == spell_traces(traces, 1)

    def test_eos_stop_matches_the_unmemoized_loop(self):
        # "ab¶" at order 3 emits b then EOS under k = 1
        model = train_ngram(tokenize("ab¶ab¶"), order=3, alpha=0.0)
        for cfg in (K1, SamplerConfig(0.0, 40, 1.0, 0.0), SamplerConfig(1.0, 40, 1.0, 0.6, seed=2)):
            result = generate(model, cfg, tokenize("a"), max_len=50)
            tokens, traces, stop_reason = unmemoized_generate(model, cfg, tokenize("a"), 50, 64)
            assert result.stop_reason == stop_reason == STOP_EOS
            assert result.output_tokens == tokens
            assert spell_traces(result.traces, 0) == spell_traces(traces, 0)

    def test_a_recurring_context_is_staged_once_per_call(self, monkeypatch):
        staged = []
        top_k = sampler.top_k_filter
        monkeypatch.setattr(sampler, "top_k_filter", lambda d, k: staged.append(k) or top_k(d, k))
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        result = generate(model, SamplerConfig(1.0, 5, 1.0, 0.0, seed=3), tokenize("a"), max_len=30)
        assert detokenize(result.output_tokens) == "ba" * 15
        assert len(staged) == 2  # one context after 'a', one after 'b'
        assert result.traces[0].stages is result.traces[2].stages
        generate(model, SamplerConfig(1.0, 5, 1.0, 0.0, seed=3), tokenize("a"), max_len=30)
        assert len(staged) == 4  # no state outlives a call: the next one stages both again


class TestReplay:
    def test_same_inputs_reproduce(self):
        model = train_ngram(tokenize("the cat sat on the mat."), order=3, alpha=0.2)
        cfg = SamplerConfig(1.1, 30, 0.9, 0.01, seed=77)
        prompt = tokenize("the ")
        result = generate(model, cfg, prompt, max_len=25)
        assert replay(result, model, cfg, prompt)

    def test_argmax_runs_replay_for_every_seed(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        prompt = tokenize("a")
        for seed in range(10):
            cfg = SamplerConfig(1.0, 1, 1.0, 0.0, seed=seed)
            result = generate(model, cfg, prompt, max_len=6)
            assert replay(result, model, cfg, prompt)


class TestResultSerialization:
    def test_json_document_shape(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=3)
        doc = result.to_json_dict(A)
        assert doc == {"prompt": "a", "output": "bab", "stop_reason": "max_len",
                       "traces": [t.to_json_dict() for t in result.traces]}

    def test_traces_embed_on_request(self):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        result = generate(model, K1, tokenize("a"), max_len=2)
        doc = result.to_json_dict(A)
        assert len(doc["traces"]) == 2
        assert doc["traces"][0]["drawn_token"] == b

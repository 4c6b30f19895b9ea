"""Command-line surface: flags, config merging, exit codes, artifact determinism."""

import contextlib
import copy
import csv
import io
import json
import os
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_framesim import reference_k_sweep
from test_ngram import ReferenceNGramModel, reference_tokenize, reference_train_ngram
from test_sampler import reference_run_pipeline

from decodelab import (
    NGramModel,
    ProbabilityDistribution,
    autoregress,
    cli,
    default_alphabet,
    derive_seed,
    entropy,
    framesim,
)
from decodelab.cli import EXIT_FORMAT, EXIT_OK, EXIT_USAGE, SIM_CSV_HEADER, SWEEP_CSV_HEADER, main

A = default_alphabet()
CORPUS = "the cat sat on the mat. the cat ate the rat.\n"


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    path = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(["train", str(corpus_file), str(path), "--order", "3", "--alpha", "0.1"])
    assert rc == EXIT_OK
    return path


class TestTrain:
    def test_reports_token_and_context_counts(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "m.json"
        rc = main(["train", str(corpus_file), str(out), "--order", "2"])
        assert rc == EXIT_OK
        line = capsys.readouterr().out.strip()
        assert line == f"tokens={len(CORPUS)} contexts={NGramModel.load(out).context_count()}"

    def test_missing_corpus_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "absent.txt"), str(tmp_path / "m.json")])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_corpus_shorter_than_order_is_a_usage_error(self, tmp_path, capsys):
        short = tmp_path / "short.txt"
        short.write_text("ab", encoding="utf-8")
        rc = main(["train", str(short), str(tmp_path / "m.json"), "--order", "4"])
        assert rc == EXIT_USAGE

    def test_hand_countable_model_is_inspectable(self, tmp_path):
        corpus = tmp_path / "abab.txt"
        corpus.write_text("abab", encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["train", str(corpus), str(out), "--order", "2", "--alpha", "0"]) == EXIT_OK
        model = NGramModel.load(out)
        assert model.conditional((A.index_of("a"),))[A.index_of("b")] == 1.0


class TestGenerate:
    def test_reference_flags_are_accepted(self, model_file, capsys):
        rc = main([
            "generate", str(model_file), "--prompt", "the ", "--temp", "0.8",
            "--top-k", "40", "--top-p", "0.95", "--min-p", "0", "--seed", "4",
            "--max-len", "30",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.endswith("\n") and len(out.strip()) > 0

    def test_argmax_decoding_ignores_the_seed(self, model_file, capsys):
        args = ["generate", str(model_file), "--prompt", "the ", "--top-k", "1", "--max-len", "20"]
        assert main(args + ["--seed", "1"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args + ["--seed", "999"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_a_prompt_with_a_lone_surrogate_is_tokenized(self, model_file, capsys):
        # argv hands undecodable bytes over as lone surrogates; each is one
        # out-of-alphabet character, so the prompt reads as "a b".
        assert main(["generate", str(model_file), "--prompt", "a\udcffb"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == ("ajrd.j9hbc3r  fh1lebkep91ycgo20byrtz5ep91mkyndr.9lubv0txenlkl5.2.r5jlpi ate cwi0q27 tqjl "
                       "sat.nf016x05xjm8ve3gfsmbju sat.4s1ia4bnrslb9pd5aq9kbmhly2td7g.auy qtpc "
                       "elnzpi8a9n.975718qdi2hif23ygwut7ltdfgnxo\n")
        assert main(["generate", str(model_file), "--prompt", "a b"]) == EXIT_OK
        assert capsys.readouterr().out == out

    def test_zero_max_len_is_a_usage_error(self, model_file, capsys):
        rc = main(["generate", str(model_file), "--max-len", "0"])
        assert rc == EXIT_USAGE

    def test_corrupt_model_is_a_format_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        assert main(["generate", str(bad)]) == EXIT_FORMAT

    def test_future_model_version_is_a_format_error(self, tmp_path, model_file):
        doc = json.loads(model_file.read_text(encoding="utf-8"))
        doc["format_version"] = 99
        bumped = tmp_path / "bumped.json"
        bumped.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(bumped)]) == EXIT_FORMAT

    def test_missing_model_is_a_usage_error(self, tmp_path):
        assert main(["generate", str(tmp_path / "absent.json")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda counts: [],  # the whole count table is a list
            lambda counts: {**counts, "1": []},  # one order's level is a list
            lambda counts: {**counts, "1": {"": [3, 1]}},  # one context's entry is a list
        ],
        ids=["counts", "level", "context"],
    )
    def test_count_table_that_is_a_list_is_a_format_error(self, tmp_path, model_file, capsys, mangle):
        doc = json.loads(model_file.read_text(encoding="utf-8"))
        doc["counts"] = mangle(doc["counts"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(bad)]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be a JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: json.dumps({**doc, "alpha": 0, "counts": {**doc["counts"], "1": {"": {}}}}),
            lambda doc: json.dumps({**doc, "alpha": "nan"}),
            lambda doc: json.dumps({**doc, "alpha": "A"}).replace('"A"', "1e999"),
            lambda doc: json.dumps({**doc, "order": len(doc["counts"]) + 1}),
            # numbers of the wrong JSON type, which int() and float() would have truncated or parsed
            lambda doc: json.dumps({**doc, "counts": {**doc["counts"], "1": {"": {"0": 2.5}}}}),
            lambda doc: json.dumps({**doc, "order": len(doc["counts"]) + 0.9}),
            lambda doc: json.dumps({**doc, "alphabet": {**doc["alphabet"], "eos_index": True}}),
            lambda doc: json.dumps({**doc, "alpha": "0.1"}),
            lambda doc: json.dumps({**doc, "alpha": "A"}).replace('"A"', "1" + "0" * 400),
        ],
        ids=[
            "alpha-0-empty-unigram", "alpha-nan", "alpha-1e999", "order-above-levels",
            "count-2.5", "order-3.9", "eos-index-true", "alpha-string", "alpha-int-beyond-float",
        ],
    )
    def test_model_rejected_at_load_is_a_format_error(self, tmp_path, model_file, capsys, edit):
        bad = tmp_path / "bad.json"
        bad.write_text(edit(json.loads(model_file.read_text(encoding="utf-8"))), encoding="utf-8")
        assert main(["generate", str(bad), "--max-len", "5"]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("order", [0, -1])
    def test_an_order_below_1_is_a_format_error(self, tmp_path, model_file, capsys, order):
        # no count tables is the table set '1'..'0'; the unigram read then raised an IndexError
        doc = json.loads(model_file.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "order": order, "counts": {}}), encoding="utf-8")
        assert main(["generate", str(bad), "--max-len", "5"]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: order must be >= 1 (got {order})\n"

    def test_a_key_save_cannot_write_is_a_format_error(self, tmp_path, model_file, capsys):
        # save spells token t as str(t) alone; int() read "0" + key as the same token
        doc = json.loads(model_file.read_text(encoding="utf-8"))
        unigram = doc["counts"]["1"][""]
        key = next(iter(unigram))
        count = unigram["0" + key] = unigram.pop(key)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(bad), "--max-len", "5"]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: bad count entry '0{key}': {count}\n"

    def test_tiny_temperature_leaves_stderr_empty(self, tmp_path, model_file, capsys):
        # exp() of (z - max) / 1e-320 overflows to -inf on the way to mass 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["generate", str(model_file), "--temp", "1e-320", "--max-len", "8"]) == EXIT_OK
            assert main([
                "sweep", str(model_file), "--temps", "1e-320", "--max-len", "8",
                "--csv-out", str(tmp_path / "s.csv"),
            ]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_trace_file_is_deterministic(self, tmp_path, model_file):
        t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
        base = ["generate", str(model_file), "--prompt", "cat", "--seed", "8", "--max-len", "15"]
        assert main(base + ["--trace-out", str(t1)]) == EXIT_OK
        assert main(base + ["--trace-out", str(t2)]) == EXIT_OK
        assert t1.read_bytes() == t2.read_bytes()
        doc = json.loads(t1.read_text(encoding="utf-8"))
        assert doc["format"] == "decodelab-generation"
        assert doc["format_version"] == 1
        assert len(doc["traces"]) == len(doc["output"])

    def test_config_file_supplies_defaults(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prompt": "the ", "seed": 21, "max_len": 12}), encoding="utf-8")
        assert main(["generate", str(model_file), "--config", str(cfg)]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main(["generate", str(model_file), "--prompt", "the ", "--seed", "21", "--max-len", "12"]) == EXIT_OK
        assert capsys.readouterr().out == from_config

    def test_flags_override_the_config_file(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prompt": "the ", "seed": 21, "max_len": 12}), encoding="utf-8")
        assert main(["generate", str(model_file), "--config", str(cfg), "--seed", "22"]) == EXIT_OK
        overridden = capsys.readouterr().out
        assert main(["generate", str(model_file), "--prompt", "the ", "--seed", "22", "--max-len", "12"]) == EXIT_OK
        assert capsys.readouterr().out == overridden

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 1.0}), encoding="utf-8")
        assert main(["generate", str(model_file), "--config", str(cfg)]) == EXIT_USAGE
        assert "temperature" in capsys.readouterr().err

    def test_non_object_config_is_a_usage_error(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert main(["generate", str(model_file), "--config", str(cfg)]) == EXIT_USAGE


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("sweep", {"temps": 5}),
            ("generate", {"seed": True}),
            ("generate", {"top_k": 40.5}),
            ("generate", {"prompt": [1]}),
            ("simulate", {"stay_mass": "0.9"}),
            ("simulate", {"k_grid": []}),
            ("sweep", {"min_ps": [0, None]}),
            ("generate", {"max_len": None}),
            ("train", {"alpha": 10**400}),
            ("sweep", {"temps": [0.5, 10**400]}),
            ("simulate", {"height": 2.5}),
            ("sweep", {"temps": [True]}),
        ],
    )
    def test_wrong_json_type_is_a_usage_error(self, tmp_path, corpus_file, model_file, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = {  # a small valid run of each command
            "train": ["train", str(corpus_file), str(tmp_path / "m.json")],
            "generate": ["generate", str(model_file), "--max-len", "5"],
            "sweep": ["sweep", str(model_file), "--max-len", "5", "--csv-out", str(tmp_path / "s.csv")],
            "simulate": ["simulate", "--steps", "1", "--trials", "1", "--csv-out", str(tmp_path / "x.csv")],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key '{next(iter(config))}'") and "Traceback" not in err

    def test_json_integers_fill_float_flags(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temps": [1, 2], "top_ps": [1], "min_ps": [0]}), encoding="utf-8")
        from_config, from_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", str(model_file), "--prompt", "the ", "--max-len", "10"]
        assert main(base + ["--config", str(cfg), "--csv-out", str(from_config)]) == EXIT_OK
        assert main(base + [
            "--temps", "1.0", "2.0", "--top-ps", "1.0", "--min-ps", "0.0", "--csv-out", str(from_flags),
        ]) == EXIT_OK
        assert from_config.read_bytes() == from_flags.read_bytes()
        with from_config.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[1], r[3], r[4]) for r in rows] == [("1.0", "1.0", "0.0"), ("2.0", "1.0", "0.0")]


# Replacement values for the exit-code fuzz: every JSON type, and numbers small
# enough that an accepted run stays quick and allocates nothing large.
FUZZ_VALUES = st.one_of(
    st.sampled_from([None, True, -1, 0, 2.5, 4.9, float("nan"), "x", "0.1", [], {}, [1], {"a": 1}]),
    st.integers(-2, 4),
)

FUZZ_CONFIGS = {
    "train": {"order": 2, "alpha": 0.1},
    "generate": {
        "prompt": "ab", "temp": 0.8, "top_k": 5, "top_p": 0.9, "min_p": 0.0, "seed": 1, "max_len": 4,
        "context": 4, "trace_out": "trace.json",
    },
    "sweep": {
        "prompt": "a", "temps": [0.8], "top_ks": [3], "top_ps": [0.9], "min_ps": [0.0], "seed": 1,
        "max_len": 3, "context": 4, "csv_out": "s.csv",
    },
    "simulate": {
        "height": 3, "width": 3, "vocab": 4, "stay_mass": 0.8, "k_grid": [1, 2], "steps": 2, "trials": 1,
        "seed": 1, "csv_out": "x.csv", "frames_out": "frames",
    },
}


class TestExitCodeFuzz:
    """One replaced field of a valid model document or config file: exit 0, 2 or 3, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, corpus_file):
        work = tmp_path_factory.mktemp("fuzz")
        models = {}
        for alpha in (0.0, 0.1):
            path = work / f"model-{alpha}.json"
            assert main(["train", str(corpus_file), str(path), "--order", "2", "--alpha", str(alpha)]) == EXIT_OK
            models[alpha] = json.loads(path.read_text(encoding="utf-8"))
        return work, models

    @staticmethod
    def _run(work: Path, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)  # relative output paths, and any path a replaced value names, land here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(argv)
        finally:
            os.chdir(cwd)
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_FORMAT)
        assert err.getvalue() == "" if rc == EXIT_OK else err.getvalue().startswith("error:")

    @settings(max_examples=200)
    @given(data=st.data())
    def test_model_document_field(self, workdir, data):
        work, models = workdir
        doc = copy.deepcopy(models[data.draw(st.sampled_from(sorted(models)), label="alpha")])
        node = doc
        key = data.draw(st.sampled_from(sorted(node)))
        while isinstance(node[key], dict) and node[key] and data.draw(st.booleans(), label="descend"):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node)))
        node[key] = data.draw(FUZZ_VALUES, label="value")
        (work / "model.json").write_text(json.dumps(doc), encoding="utf-8")
        self._run(work, ["generate", "model.json", "--max-len", "4"])

    @pytest.mark.parametrize(
        "edit, message",
        [
            # true == 1.0 == 1, and tuple() reads a list of glyphs or an object's keys as the symbols
            (lambda doc: doc.update(format_version=True), "format_version must be a JSON integer (got true)"),
            (lambda doc: doc.update(format_version=1.0), "format_version must be a JSON integer (got 1.0)"),
            (lambda doc: doc.update(alphabet=[doc["alphabet"]]), "alphabet must be a JSON object (got list)"),
            (lambda doc: doc["alphabet"].update(symbols=list(doc["alphabet"]["symbols"])),
             'symbols must be a JSON string (got ["a", "b", '),
            (lambda doc: doc["alphabet"].update(symbols=dict.fromkeys(doc["alphabet"]["symbols"], 1)),
             'symbols must be a JSON string (got {"a": 1, '),
        ],
        ids=["version-true", "version-1.0", "alphabet-list", "symbols-list", "symbols-object"],
    )
    def test_model_fields_save_cannot_write(self, tmp_path, model_file, capsys, edit, message):
        doc = json.loads(model_file.read_text(encoding="utf-8"))
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(bad), "--max-len", "4"]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and "Traceback" not in err

    @settings(max_examples=300)
    @given(command=st.sampled_from(sorted(FUZZ_CONFIGS)), data=st.data())
    def test_config_value(self, workdir, corpus_file, command, data):
        work, models = workdir
        config = dict(FUZZ_CONFIGS[command])
        config[data.draw(st.sampled_from(sorted(config)), label="key")] = data.draw(FUZZ_VALUES, label="value")
        (work / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
        positionals = {
            "train": [str(corpus_file), "trained.json"],
            "generate": ["model-0.1.json"],
            "sweep": ["model-0.1.json"],
            "simulate": [],
        }[command]
        self._run(work, [command, *positionals, "--config", "cfg.json"])


def _with_counts(doc, edit) -> bytes:
    """The model document ``doc`` with ``edit`` applied to its count tables."""
    edit(doc["counts"])
    return json.dumps(doc).encode()


class TestHostileFiles:
    """Files the JSON decoder refuses, and values too long to echo whole: exit 3 for a
    model, 2 for a config, and one short stderr line.  They are written as raw text:
    ``json.dumps`` refuses a 5,000-digit integer and recurses on 100,000 nested lists,
    so ``FUZZ_VALUES`` cannot hold them."""

    @staticmethod
    def _run(capsys, model_file, bad, reader, text) -> tuple[int, str]:
        bad.write_bytes(text(json.loads(model_file.read_text(encoding="utf-8"))))
        argv = [str(bad)] if reader == "model" else [str(model_file), "--config", str(bad)]
        code = main(["generate", *argv, "--max-len", "4"])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return code, err

    @pytest.mark.parametrize(
        "reader, text, code",
        [
            ("model", lambda doc: b"[" * 100_000, EXIT_FORMAT),
            ("config", lambda doc: b"[" * 100_000, EXIT_USAGE),
            ("model", lambda doc: json.dumps({**doc, "alpha": "A"}).replace('"A"', "1" * 5000).encode(), EXIT_FORMAT),
            ("model", lambda doc: json.dumps(doc).encode().replace(b'"decodelab-ngram"', b'"decodelab-ngram\xff"'),
             EXIT_FORMAT),
        ],
        ids=["model-nested", "config-nested", "model-alpha-5000-digits", "model-not-utf-8"],
    )
    def test_a_file_the_decoder_refuses(self, tmp_path, model_file, capsys, reader, text, code):
        rc, err = self._run(capsys, model_file, tmp_path / "bad.json", reader, text)
        assert rc == code
        assert err.startswith(f"error: {reader} file is not valid JSON: ")

    @pytest.mark.parametrize(
        "reader, text, code, message",
        [
            ("config", lambda doc: json.dumps({"top_k": [1] * 200_000}).encode(), EXIT_USAGE,
             "config key 'top_k' must be a JSON integer (got [1, 1, 1, "),
            ("model", lambda doc: json.dumps({**doc, "alpha": [0] * 200_000}).encode(), EXIT_FORMAT,
             "alpha must be a JSON number (got [0, 0, 0, "),
        ],
        ids=["config-top-k", "model-alpha"],
    )
    def test_a_long_value_is_echoed_cut(self, tmp_path, model_file, capsys, reader, text, code, message):
        rc, err = self._run(capsys, model_file, tmp_path / "bad.json", reader, text)
        assert rc == code
        assert err.startswith(f"error: {message}") and err.endswith("...)\n")
        assert len(err.encode("utf-8")) <= 300

    @pytest.mark.parametrize(
        "reader, text, code, message",
        [
            ("model", lambda doc: json.dumps({**doc, "format_version": [0] * 200_000}).encode(), EXIT_FORMAT,
             "unsupported model format version [0, 0, "),
            ("model", lambda doc: _with_counts(doc, lambda c: c["2"].update({"x" * 200_000: {}})), EXIT_FORMAT,
             "bad context key 'xxx"),
            ("model", lambda doc: _with_counts(doc, lambda c: c["1"][""].update({"x" * 200_000: 1})), EXIT_FORMAT,
             "bad count entry 'xxx"),
            ("model", lambda doc: _with_counts(doc, lambda c: c.update(dict.fromkeys(map(str, range(9, 50_000)), {}))),
             EXIT_FORMAT, "count tables must be exactly '1'..'3' (got ['1', '10', '100', "),
            ("config", lambda doc: json.dumps(dict.fromkeys((f"key{i}" for i in range(50_000)), 1)).encode(),
             EXIT_USAGE, "config file has unknown keys for 'generate': key0, key1, key10, "),
        ],
        ids=["model-format-version", "model-context-key", "model-token-key", "model-table-names", "config-keys"],
    )
    def test_a_long_key_or_key_list_is_echoed_cut(self, tmp_path, model_file, capsys, reader, text, code, message):
        rc, err = self._run(capsys, model_file, tmp_path / "bad.json", reader, text)
        assert rc == code
        assert err.startswith(f"error: {message}") and "..." in err
        assert len(err.encode("utf-8")) <= 300


class TestSweep:
    def test_grid_rows_and_header(self, tmp_path, model_file):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", str(model_file), "--prompt", "the ", "--min-ps", "0", "0.06", "0.15",
            "--max-len", "25", "--csv-out", str(out),
        ])
        assert rc == EXIT_OK
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 4
        assert [r[4] for r in rows[1:]] == ["0.0", "0.06", "0.15"]

    def test_row_seeds_derive_from_master_and_run_id(self, tmp_path, model_file):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", str(model_file), "--min-ps", "0", "0.06", "--seed", "77",
            "--max-len", "10", "--csv-out", str(out),
        ]) == EXIT_OK
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            assert int(row[5]) == derive_seed(77, int(row[0]))

    def test_repeat_runs_are_byte_identical(self, tmp_path, model_file, capsys):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", str(model_file), "--prompt", "cat", "--max-len", "20",
            "--csv-out", str(out),
        ]
        assert main(args) == EXIT_OK
        first_csv, first_out = out.read_bytes(), capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first_csv
        assert capsys.readouterr().out == first_out

    def test_empty_grid_is_a_usage_error(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_ps": []}), encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(model_file), "--config", str(cfg), "--csv-out", str(out)]) == EXIT_USAGE

    def test_missing_csv_out_is_a_usage_error(self, model_file, capsys):
        assert main(["sweep", str(model_file)]) == EXIT_USAGE
        assert "csv_out" in capsys.readouterr().err

    def test_a_bad_value_late_in_the_grid_exits_before_any_row_runs(self, tmp_path, model_file, capsys,
                                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "generate", lambda *a, **kw: calls.append(a))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", str(model_file), "--min-ps", "0", "0.05", "1.5", "--max-len", "2000", "--csv-out", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: min_p must satisfy 0 <= min_p < 1 (got 1.5)\n"
        assert calls == [] and captured.out == "" and not out.exists()


class TestSeedContract:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", ["generate", "sweep", "simulate"])
    def test_a_seed_outside_uint64_is_a_usage_error(self, tmp_path, model_file, capsys, command, seed):
        out = tmp_path / "out.csv"
        argv = {
            "generate": ["generate", str(model_file), "--max-len", "5"],
            "sweep": ["sweep", str(model_file), "--max-len", "5", "--csv-out", str(out)],
            "simulate": ["simulate", "--steps", "1", "--trials", "1", "--csv-out", str(out)],
        }[command]
        assert main(argv + ["--seed", str(seed)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must fit in an unsigned 64-bit integer (got {seed})\n"
        assert captured.out == "" and not out.exists()


class TestKernelByteIdentity:
    """The shipped kernel against the frozen reference pipeline (tests/test_sampler.py),
    through the CLI: every artifact byte must match."""

    @staticmethod
    def _artifacts(tmp_path, model_file, capsys, monkeypatch, tag):
        (tmp_path / tag).mkdir()
        monkeypatch.chdir(tmp_path / tag)  # stdout names the CSV path: keep it the same
        trace, table = Path("trace.json"), Path("sweep.csv")
        assert main([
            "generate", str(model_file), "--prompt", "the ", "--seed", "11", "--max-len", "80",
            "--top-k", "12", "--top-p", "0.9", "--min-p", "0.05", "--trace-out", str(trace),
        ]) == EXIT_OK
        assert main([
            "sweep", str(model_file), "--prompt", "cat", "--temps", "0", "0.6", "1.4", "--top-ks", "3", "40",
            "--top-ps", "0.8", "1", "--min-ps", "0", "0.08", "0.6", "--max-len", "30", "--seed", "5",
            "--csv-out", str(table),
        ]) == EXIT_OK
        return trace.read_bytes(), table.read_bytes(), capsys.readouterr().out

    def test_generate_trace_and_sweep_csv_match_the_reference(self, tmp_path, model_file, capsys, monkeypatch):
        shipped = self._artifacts(tmp_path, model_file, capsys, monkeypatch, "shipped")
        with monkeypatch.context() as m:
            m.setattr(autoregress, "run_pipeline",  # the frozen pipeline takes no memo: it stages every token
                      lambda z, cfg, rng, *, want_trace=True, memo=None: reference_run_pipeline(
                          z, cfg, rng, want_trace=want_trace))
            # the sweep's entropy as it was taken before: from a validated distribution
            m.setattr(cli, "entropy", lambda f: entropy(ProbabilityDistribution(f.masses, f.index_map)))
            reference = self._artifacts(tmp_path, model_file, capsys, m, "reference")
        assert shipped == reference

    @staticmethod
    def _text_run(tmp_path, corpus_file, capsys, monkeypatch, tag):
        (tmp_path / tag).mkdir()
        monkeypatch.chdir(tmp_path / tag)
        assert main(["train", str(corpus_file), "model.json", "--order", "4", "--alpha", "0.05"]) == EXIT_OK
        assert main([
            "generate", "model.json", "--prompt", "The Cat", "--seed", "3", "--max-len", "60", "--temp", "1.2",
            "--top-k", "30", "--top-p", "0.97", "--min-p", "0.01", "--trace-out", "trace.json",
        ]) == EXIT_OK
        assert main([
            "sweep", "model.json", "--prompt", "at", "--temps", "0", "0.7", "1.5", "--top-ks", "2", "40",
            "--top-ps", "0.9", "1", "--min-ps", "0", "0.1", "--max-len", "40", "--seed", "9", "--csv-out", "s.csv",
        ]) == EXIT_OK
        files = tuple(Path(name).read_bytes() for name in ("model.json", "trace.json", "s.csv"))
        return files, capsys.readouterr().out

    def test_train_generate_and_sweep_match_the_reference_model(self, tmp_path, corpus_file, capsys, monkeypatch):
        shipped = self._text_run(tmp_path, corpus_file, capsys, monkeypatch, "shipped")
        with monkeypatch.context() as m:
            m.setattr(cli, "tokenize", reference_tokenize)
            m.setattr(cli, "train_ngram", reference_train_ngram)
            m.setattr(cli, "NGramModel", ReferenceNGramModel)
            reference = self._text_run(tmp_path, corpus_file, capsys, m, "reference")
        assert shipped == reference

    @staticmethod
    def _simulation(tmp_path, capsys, monkeypatch, tag, argv):
        (tmp_path / tag).mkdir()
        monkeypatch.chdir(tmp_path / tag)
        assert main(argv + ["--csv-out", "sim.csv", "--frames-out", "frames"]) == EXIT_OK
        frames = {p.name: p.read_bytes() for p in sorted(Path("frames").iterdir())}
        return Path("sim.csv").read_bytes(), capsys.readouterr().out, frames

    @pytest.mark.parametrize(
        "argv, pgm_count",
        [
            (["simulate", "--steps", "6", "--trials", "2"], 4 * 7),  # the default world and k grid
            (["simulate", "--height", "5", "--width", "3", "--vocab", "7", "--stay-mass", "0.6",
              "--k-grid", "1", "2", "4", "7", "--steps", "9", "--trials", "3", "--seed", "31"], 4 * 10),
        ],
        ids=["defaults", "small-world"],
    )
    def test_simulate_csv_stdout_and_frames_match_the_reference(self, tmp_path, capsys, monkeypatch, argv,
                                                                pgm_count):
        shipped = self._simulation(tmp_path, capsys, monkeypatch, "shipped", argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "k_sweep", reference_k_sweep)  # one rollout per (k, trial), frame by frame
            reference = self._simulation(tmp_path, capsys, m, "reference", argv)
        assert len(shipped[2]) == pgm_count and shipped == reference


class TestSimulate:
    def test_default_grid_and_frozen_k1_rows(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        rc = main(["simulate", "--steps", "4", "--trials", "2", "--csv-out", str(out)])
        assert rc == EXIT_OK
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SIM_CSV_HEADER
        ks = sorted({int(r[0]) for r in rows[1:]})
        assert ks == [1, 50, 200, 500]
        for row in rows[1:]:
            if row[0] == "1":
                assert row[2] == "1"
                assert float(row[3]) == 0.0

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--k-grid", "1", "8", "--steps", "3", "--trials", "2",
            "--csv-out", str(out),
        ]
        assert main(args) == EXIT_OK
        first_csv, first_out = out.read_bytes(), capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first_csv
        assert capsys.readouterr().out == first_out

    def test_frame_dumps_are_valid_pgm(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        frames = tmp_path / "frames"
        rc = main([
            "simulate", "--k-grid", "1", "16", "--steps", "2", "--trials", "1",
            "--csv-out", str(out), "--frames-out", str(frames),
        ])
        assert rc == EXIT_OK
        dumped = sorted(frames.glob("*.pgm"))
        assert len(dumped) == 6  # 2 k values x (prompt + 2 steps)
        for p in dumped:
            assert p.read_bytes().startswith(b"P5\n8 8\n255\n")

    def test_zero_trials_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--trials", "0", "--csv-out", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "trials" in capsys.readouterr().err

    def test_unsatisfiable_stay_mass_is_a_usage_error(self, tmp_path):
        rc = main([
            "simulate", "--stay-mass", "0.01", "--csv-out", str(tmp_path / "x.csv"),
            "--steps", "1", "--trials", "1",
        ])
        assert rc == EXIT_USAGE

    def test_missing_csv_out_is_a_usage_error(self, capsys):
        assert main(["simulate", "--steps", "1", "--trials", "1"]) == EXIT_USAGE

    def test_a_bad_k_late_in_the_grid_exits_before_any_rollout(self, tmp_path, capsys, monkeypatch):
        # every frame step stages its new patch contexts through framesim._stage_rows
        calls = []
        stage_rows = framesim._stage_rows

        def recording(*args, **kwargs):
            calls.append(args)
            return stage_rows(*args, **kwargs)

        monkeypatch.setattr(framesim, "_stage_rows", recording)
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--k-grid", "16", "4", "0", "--steps", "200", "--trials", "20", "--csv-out", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: top_k must satisfy k >= 1 (got 0)\n"
        assert calls == [] and captured.out == "" and not out.exists()
        argv.remove("0")  # the grid less its bad k, over 2 steps: at most one patched call per step
        argv[argv.index("200")] = "2"
        assert main(argv) == EXIT_OK and 1 <= len(calls) <= 2

    # Each cap at its value and at one more, through the parameter check alone:
    # nothing is ever run or allocated at these sizes.
    @pytest.mark.parametrize(
        "what, at_cap, above_cap",
        [
            ("height * width * vocab", {"height": 1, "width": 1, "vocab": 2**20}, {"vocab": 2**20 + 1}),
            ("steps", {"height": 1, "width": 1, "steps": 10_000}, {"steps": 10_001}),
            ("trials", {"height": 1, "width": 1, "trials": 1_000}, {"trials": 1_001}),
            ("the number of k values", {"height": 1, "width": 1, "k_grid": list(range(1, 65))},
             {"k_grid": list(range(1, 66))}),
            # 64 * 1 * 64 * 1024 = 2**22 frame patches; 5 * 1 * 397 * 2113 = 2**22 + 1
            ("k values * trials * steps * height * width",
             {"height": 1, "width": 1024, "vocab": 2, "k_grid": list(range(1, 65)), "trials": 1, "steps": 64},
             {"width": 2113, "k_grid": [1, 2, 3, 4, 5], "steps": 397}),
        ],
    )
    def test_size_caps(self, tmp_path, what, at_cap, above_cap):
        def merged(config):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            return cli._merged_params(cli.build_parser().parse_args(["simulate", "--config", str(cfg)]), "simulate")

        assert merged(at_cap)
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} is \d+, above the cap of \d+$"):
            merged({**at_cap, **above_cap})

    def test_a_size_above_its_cap_exits_before_running(self, tmp_path, capsys):
        # --steps 0 would fail in the run itself, with another message
        argv = ["simulate", "--trials", "1001", "--steps", "0", "--csv-out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: trials is 1001, above the cap of 1000\n"
        assert not (tmp_path / "x.csv").exists()


class TestTextSizeCaps:
    # Each cap at its value and at one more, through the parameter check alone:
    # nothing is ever run or allocated at these sizes.
    @pytest.mark.parametrize(
        "argv, what, at_cap, above_cap",
        [
            (["train", "c.txt", "m.json"], "order", {"order": 32}, {"order": 33}),
            (["generate", "m.json"], "max_len", {"max_len": 10_000}, {"max_len": 10_001}),
            (["sweep", "m.json"], "max_len", {"max_len": 10_000}, {"max_len": 10_001}),
            # 64 * 64 = 4,096 rows; 17 * 241 = 4,097
            (["sweep", "m.json"], "the number of grid rows",
             {"temps": [1.0] * 64, "top_ks": list(range(1, 65)), "min_ps": [0.0], "max_len": 1},
             {"temps": [1.0] * 17, "top_ks": list(range(1, 242))}),
            # 4,096 rows * 1,024 = 2**22 tokens; 5 * 397 rows * 2,113 = 2**22 + 1
            (["sweep", "m.json"], "grid rows * max_len",
             {"temps": [1.0] * 64, "top_ks": list(range(1, 65)), "min_ps": [0.0], "max_len": 1_024},
             {"temps": [1.0] * 5, "top_ks": list(range(1, 398)), "max_len": 2_113}),
        ],
    )
    def test_size_caps(self, tmp_path, argv, what, at_cap, above_cap):
        def merged(config):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            return cli._merged_params(cli.build_parser().parse_args(argv + ["--config", str(cfg)]), argv[0])

        assert merged(at_cap)
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} is \d+, above the cap of \d+$"):
            merged({**at_cap, **above_cap})

    def test_a_size_above_its_cap_exits_before_running(self, tmp_path, capsys):
        # the corpus does not exist: the cap fires before it is read
        argv = ["train", str(tmp_path / "absent.txt"), str(tmp_path / "m.json"), "--order", "33"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: order is 33, above the cap of 32\n"
        assert not (tmp_path / "m.json").exists()

    def test_a_model_over_the_count_cell_cap_is_a_format_error(self, tmp_path, capsys):
        # 20,000 symbols x 2,001 contexts = 40,020,000 cells, in a 0.1 MB document
        symbols = "".join(chr(0x4E00 + i) for i in range(20_000))
        doc = {"format": "decodelab-ngram", "format_version": 1, "order": 2, "alpha": 0.1,
               "alphabet": {"symbols": symbols, "eos_index": 0},
               "counts": {"1": {"": {"0": 1}}, "2": {str(i): {"0": 1} for i in range(2_000)}}}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(path), "--max-len", "5"]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err == "error: the model needs 40020000 count cells (contexts x alphabet size), above the cap of 16777216\n"


class TestParserContract:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "train" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, shown",
        [
            ("train", ["n-gram order (default: 4)", "additive smoothing (default: 0.1)"]),
            ("generate", ["prompt text (default: '')", "argmax mode (default: 0.8)", "floor (default: 0)"]),
            ("sweep", ["min-p grid (default: 0 0.06 0.15)", "(required)"]),
            ("simulate", ["top-k sweep values (default: 1 50 200 500)", "rollouts per k (default: 3)"]),
        ],
    )
    def test_help_states_every_default(self, capsys, command, shown):
        assert main([command, "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert all(s in text for s in shown)
        defaults = [d for _, d, _ in cli._PARAMS[command].values() if d is not None]
        assert text.count("(default: ") == len(defaults)

    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_log_env_var_is_honored(self, model_file, capsys, monkeypatch):
        monkeypatch.setenv("DECODELAB_LOG", "debug")
        assert main(["generate", str(model_file), "--max-len", "5"]) == EXIT_OK

"""The JSON value rules the three readers share, one refusal and one wording,
and the one writer of the model and trace files."""

import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodelab import ModelFormatError, NGramModel, RandomStream, SampleTrace, SamplerConfig, run_pipeline, tokenize
from decodelab.cli import EXIT_OK, EXIT_USAGE, main
from decodelab.jsonvalues import dumps
from decodelab.ngram import train_ngram

MODEL_DOC = train_ngram(tokenize("abab cab."), 2, 0.1).to_json_dict()
TRACE_DOC = run_pipeline(np.array([3.0, 2.0, 1.0, -9.0]), SamplerConfig(1.0, 3), RandomStream(5))[1].to_json_dict()

#: ``FIELDS[reader][kind] = (field, name in the refusal, the field's kind)``; a
#: None field is the whole document.
FIELDS = {
    "model": {
        "integer": ("order", "order", "integer"),
        "number": ("alpha", "alpha", "number"),
        "object": ("counts", "counts", "object"),
    },
    "trace": {
        "integer": ("drawn_token", "drawn_token", "integer"),
        "number": ("drawn_uniform", "drawn_uniform", "number or null"),
        "object": (None, "trace", "object"),
    },
    "config": {
        "integer": ("top_k", "config key 'top_k'", "integer"),
        "number": ("top_p", "config key 'top_p'", "number"),
        "object": (None, "config file", "object"),
    },
}


def _refusal(reader, field, x, tmp_path, capsys) -> str:
    if reader == "model":
        with pytest.raises(ModelFormatError) as exc:
            NGramModel.from_json_dict({**MODEL_DOC, field: x})
        return str(exc.value)
    if reader == "trace":
        with pytest.raises(ValueError) as exc:
            SampleTrace.from_json(json.dumps(x if field is None else {**TRACE_DOC, field: x}))
        assert not isinstance(exc.value, ModelFormatError)
        return str(exc.value)
    model, config = tmp_path / "model.json", tmp_path / "cfg.json"
    model.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    config.write_text(json.dumps(x if field is None else {field: x}), encoding="utf-8")
    assert main(["generate", str(model), "--max-len", "2", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


@pytest.mark.parametrize("reader", sorted(FIELDS))
@pytest.mark.parametrize(
    "kind, x, refusal",
    [
        ("integer", True, "{name} must be a JSON {kind} (got true)"),
        ("integer", 2.5, "{name} must be a JSON {kind} (got 2.5)"),
        ("number", "0.5", '{name} must be a JSON {kind} (got "0.5")'),
        ("object", [1], "{name} must be a JSON {kind} (got list)"),
        ("number", 10**400, "{name} is beyond the float range"),
    ],
    ids=["integer-true", "integer-2.5", "number-string", "object-list", "number-past-float"],
)
def test_the_three_readers_word_a_refusal_alike(tmp_path, capsys, reader, kind, x, refusal):
    field, name, field_kind = FIELDS[reader][kind]
    assert _refusal(reader, field, x, tmp_path, capsys) == refusal.format(name=name, kind=field_kind)


def reference_dumps(x) -> str:
    """How the model and trace files were spelled before ``jsonvalues.dumps``."""
    return json.dumps(x, sort_keys=True, indent=2)


#: Floats drawn from a small pool repeat within a document, as a trace's do.
_float_pool = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.1, 1 / 3, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7])
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _float_pool)
_ints = st.one_of(st.integers(), st.integers(min_value=2**64 - 2, max_value=2**64 + 2), st.integers(-(2**200), 2**200))
#: Keys and strings with non-ASCII and control characters, quotes and backslashes.
_text = st.one_of(st.text(), st.text(alphabet=st.sampled_from("a\x00\x1f\x7f\n\t\"\\/é€\u2028\U0001f600"), max_size=6))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _text)
#: A list of one number type takes the writer's one-join path.
_leaves = st.one_of(_scalars, st.lists(_floats, max_size=8), st.lists(_ints, max_size=8),
                    st.lists(st.sampled_from([0, 1, True, False, 1.0, -0.0, 0.0, None]), max_size=6))
json_values = st.recursive(_leaves, lambda inner: st.one_of(st.lists(inner, max_size=5),
                                                            st.dictionaries(_text, inner, max_size=5)),
                           max_leaves=30)


class TestDumpsMatchesJsonDumps:
    @settings(max_examples=400)
    @given(json_values)
    def test_same_string_as_json_dumps(self, x):
        assert dumps(x) == reference_dumps(x)

    @pytest.mark.parametrize("x", [
        {}, [], "", 0, -0.0, None, True,
        {"a": {}, "b": [], "c": {"d": {}, "e": [[]], "f": [{}]}},
        [[], {}, [[], [{}]], {"": {"": []}}],
        [1, True, 1.0, None], [True, False], [1, True], [0, False, 0.0, -0.0],
        [0.0, -0.0, 0.0, -0.0], {"a": [-0.0, 1.5], "b": [0.0, 1.5], "c": -0.0, "d": 0.0, "e": [0.0, -0.0]},
        {"a": [0.0, 1.0], "b": [-0.0, 1.0]}, {"a": 0.0, "b": [-0.0]}, [-0.0, [0.0], 0.0, [-0.0]],
        [5e-324, -5e-324, 1e308, 1.7976931348623157e308, 1e16, 1e-7, 0.1],
        [2**64, 2**64 + 1, -(2**70), 10**60], {"n": 2**64 + 1},
        {"é\x00\n\u2028\U0001f600": "\x1f\"\\/\x7f", "\t": ["\u00e9", "\ud7ff"]},
        {"b": 1, "a": 2, "B": 3, "": 4, "é": 5, "a\x00": 6},
    ], ids=repr)
    def test_named_values(self, x):
        assert dumps(x) == reference_dumps(x)

    @pytest.mark.parametrize("x", [
        float("nan"), float("inf"), float("-inf"), [1.0, float("nan")], [float("inf")], [1, "a", float("-inf")],
        {"a": {"b": [0.5, float("nan")]}},
    ], ids=repr)
    def test_nan_and_the_infinities_raise_value_error(self, x):
        with pytest.raises(ValueError, match="^JSON has no spelling for the float"):
            dumps(x)

    @pytest.mark.parametrize("x", [
        (1, 2), [1, (2,)], {"a": (1.0,)}, {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {(1, 2): 3}, {1.5: 1},
        {1, 2}, b"a", np.float64(0.5), [np.int64(1)], object(),
    ], ids=repr)
    def test_other_types_and_keys_raise_type_error(self, x):
        with pytest.raises(TypeError):
            dumps(x)

    def test_a_zero_is_never_spelled_as_the_other_zero(self):
        # the float memo keys 0.0 and -0.0 alike, so it must keep neither
        doc = [0.0, -0.0, [0.0, -0.0], [-0.0, 0.0], {"a": -0.0, "b": 0.0}]
        assert dumps(doc) == reference_dumps(doc)
        assert dumps(doc).count("-0.0") == 4


#: Non-ASCII and control characters, which tokenize folds or maps to a blank.
CORPUS = "the cat sat on the mat. the cat ate the rat. \u00c9t\u00e9 \x00\n"


class TestFilesAreSpelledAsJsonDumps:
    """The model and trace files: exactly ``json.dumps(sort_keys=True, indent=2)`` plus a newline."""

    @staticmethod
    def _doc_bytes(path):
        return (reference_dumps(json.loads(path.read_text(encoding="utf-8"))) + "\n").encode("utf-8")

    @pytest.mark.parametrize("alpha", ["-0.0", "0.1", "1e-300", "0"])
    def test_model_file(self, tmp_path, capsys, alpha):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3", "--alpha", alpha]) == EXIT_OK
        assert model.read_bytes() == self._doc_bytes(model)
        assert json.loads(model.read_bytes())["alpha"] == float(alpha)
        assert (b'"alpha": -0.0,' in model.read_bytes()) == (alpha == "-0.0")

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_no_model_holds_a_float_json_cannot_spell(self, tmp_path, capsys, alpha):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), f"--alpha={alpha}"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: alpha must be ")
        assert not model.exists()

    @pytest.mark.parametrize("flags", [
        ["--temp", "1.1", "--top-k", "12", "--top-p", "0.9", "--min-p", "0.05"],
        ["--temp", "0"],
    ], ids=["sampled", "argmax"])
    def test_trace_file(self, tmp_path, capsys, flags):
        corpus, model, trace = tmp_path / "corpus.txt", tmp_path / "model.json", tmp_path / "trace.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3", "--alpha", "0.05"]) == EXIT_OK
        assert main(["generate", str(model), "--prompt", "the \u00e9", "--seed", "4", "--max-len", "60",
                     "--trace-out", str(trace), *flags]) == EXIT_OK
        assert trace.read_bytes() == self._doc_bytes(trace)
        assert json.loads(trace.read_bytes())["traces"]


class TestPhaseTiming:
    """With DECODELAB_LOG=DEBUG, every command logs one line per phase; stdout and files do not move."""

    @staticmethod
    def _run(tmp_path, capsys, tag):
        (tmp_path / tag).mkdir()
        corpus, model, trace = (tmp_path / tag / name for name in ("corpus.txt", "model.json", "trace.json"))
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3"]) == EXIT_OK
        assert main(["generate", str(model), "--seed", "2", "--max-len", "30", "--trace-out", str(trace)]) == EXIT_OK
        sweep, sim, frames = tmp_path / tag / "sweep.csv", tmp_path / tag / "sim.csv", tmp_path / tag / "frames"
        assert main(["sweep", str(model), "--max-len", "10", "--temps", "0", "1", "--csv-out", str(sweep)]) == EXIT_OK
        assert main(["simulate", "--steps", "2", "--trials", "1", "--k-grid", "1", "4", "--csv-out", str(sim),
                     "--frames-out", str(frames)]) == EXIT_OK
        pgms = tuple(f.read_bytes() for f in sorted(frames.iterdir()))
        out = capsys.readouterr().out.replace(str(tmp_path / tag), "")  # the CSV paths differ by tag
        return out, model.read_bytes(), trace.read_bytes(), sweep.read_bytes(), sim.read_bytes(), pgms

    def test_one_debug_line_per_phase(self, tmp_path, capsys, caplog):
        quiet = self._run(tmp_path, capsys, "quiet")
        assert not [r for r in caplog.records if r.levelno == logging.DEBUG]
        with caplog.at_level(logging.DEBUG, logger="decodelab"):
            loud = self._run(tmp_path, capsys, "loud")
        phases = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        names = ["train: read", "train: train", "train: write", "generate: load", "generate: sample",
                 "generate: write", "sweep: load", "sweep: sample", "sweep: write", "simulate: sample",
                 "simulate: write"]
        assert [m.rsplit(" took ", 1)[0] for m in phases] == names
        assert all(m.endswith(" s") and float(m.split(" took ")[1][:-2]) >= 0.0 for m in phases)
        assert loud == quiet

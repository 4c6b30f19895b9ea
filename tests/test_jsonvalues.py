"""The JSON value rules the three readers share: one refusal, one wording."""

import json

import numpy as np
import pytest

from decodelab import ModelFormatError, NGramModel, RandomStream, SampleTrace, SamplerConfig, run_pipeline, tokenize
from decodelab.cli import EXIT_USAGE, main
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

"""The autoregressive generation loop with a bounded sliding context window.

Each emitted token is pushed back into the context buffer before the next
prediction, so the model always conditions on everything it has said so far
(up to the window capacity): the feedback contract that generation-level
tests pin down.  The window is a strict sliding window: pushing beyond
capacity evicts the oldest token.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .jsonvalues import dumps, member, spell_object
from .ngram import detokenize
from .probcore import TokenAlphabet, TokenId
from .sampler import RandomStream, SampleTrace, SamplerConfig, _check_int, run_pipeline, trace_parts

#: Default context window capacity.
DEFAULT_CAPACITY = 64

#: The ``"format"`` and ``"format_version"`` of a trace file.
FORMAT_NAME = "decodelab-generation"
FORMAT_VERSION = 1

STOP_EOS = "eos"
STOP_MAX_LEN = "max_len"


class NextTokenModel(Protocol):
    """Anything that can score the next token given a trailing context."""

    alphabet: TokenAlphabet

    def logits_for(self, context: Sequence[TokenId]) -> np.ndarray: ...


@dataclass(frozen=True)
class ContextBuffer:
    """Bounded token window, most recent last; immutable, push returns a new buffer."""

    capacity: int
    tokens: tuple[TokenId, ...] = ()

    def __post_init__(self) -> None:
        _check_int(self.capacity, "capacity")  # a capacity of 2.5 would hold a 2-token window
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {self.capacity})")
        if len(self.tokens) > self.capacity:
            raise ValueError(f"buffer holds {len(self.tokens)} tokens, over capacity {self.capacity}")

    @classmethod
    def from_tokens(cls, tokens: Sequence[TokenId], capacity: int) -> "ContextBuffer":
        """Seed a buffer with the last ``capacity`` tokens of a sequence."""
        cls(capacity)  # checks the capacity before it bounds the slice
        toks = tuple(int(t) for t in tokens)
        return cls(capacity, toks[-capacity:] if len(toks) > capacity else toks)

    def push(self, token: TokenId) -> "ContextBuffer":
        """Append a token, evicting the oldest one when full."""
        toks = self.tokens + (int(token),)
        if len(toks) > self.capacity:
            toks = toks[1:]
        # The successor of a checked buffer needs no check: __init__ is skipped.
        buffer = object.__new__(ContextBuffer)
        buffer.__dict__.update(capacity=self.capacity, tokens=toks)
        return buffer

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, eq=False)
class GenerationResult:
    """Outcome of one generation run: tokens, per-token traces, stop reason."""

    prompt_tokens: tuple[TokenId, ...]
    output_tokens: tuple[TokenId, ...]
    traces: tuple[SampleTrace, ...]
    stop_reason: str

    def to_json_dict(self, alphabet: TokenAlphabet) -> dict:
        return {
            "prompt": detokenize(self.prompt_tokens, alphabet),
            "output": detokenize(self.output_tokens, alphabet),
            "stop_reason": self.stop_reason,
            "traces": [t.to_json_dict() for t in self.traces],
        }

    def save(self, path: str | Path, alphabet: TokenAlphabet) -> None:
        """Write the trace file, ``json.dumps(doc, sort_keys=True, indent=2)``
        and a newline, ``doc`` being :meth:`to_json_dict` with :data:`FORMAT_NAME`
        and :data:`FORMAT_VERSION` under ``"format"`` and ``"format_version"``,
        spelled straight from each trace's stage arrays.  The traces are
        streamed: each is spelled and written in turn, so the whole file is
        never held as one string."""
        # The traces, nearly all of the file, go to it as spelled: the document
        # around them is spelled with a NUL in their place (spelled JSON
        # escapes every control character) and split there.
        head, tail = spell_object([
            member("format", dumps(FORMAT_NAME)),
            member("format_version", dumps(FORMAT_VERSION)),
            member("output", dumps(detokenize(self.output_tokens, alphabet))),
            member("prompt", dumps(detokenize(self.prompt_tokens, alphabet))),
            member("stop_reason", dumps(self.stop_reason)),
            member("traces", "\0"),
        ], 0).split("\0")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head)
            fh.writelines(trace_parts(self.traces, 1))
            fh.write(tail + "\n")


def generate(
    model: NextTokenModel,
    cfg: SamplerConfig,
    prompt: Sequence[TokenId],
    max_len: int,
    capacity: int = DEFAULT_CAPACITY,
) -> GenerationResult:
    """Generate up to ``max_len`` tokens, feeding each one back into the window.

    The buffer is seeded with the prompt's trailing ``capacity`` tokens.
    Generation stops when the alphabet's EOS token is emitted (it is included
    in the output) or when ``max_len`` tokens have been produced.  The result
    is fully determined by (model, cfg incl. seed, prompt, max_len,
    capacity).

    Each token is one :func:`run_pipeline` call on a memo that this call
    owns and drops when it returns: a recurring context gives the same
    logits, which are staged once and then only drawn from, and its tokens'
    traces share one set of stage records.  Nothing is kept between calls.
    """
    if _check_int(max_len, "max_len") < 1:
        raise ValueError(f"max_len must be >= 1 (got {max_len})")
    buffer = ContextBuffer.from_tokens(prompt, _check_int(capacity, "capacity"))
    rng = RandomStream(cfg.seed)
    eos = model.alphabet.eos_index
    out: list[TokenId] = []
    traces: list[SampleTrace] = []
    stop_reason = STOP_MAX_LEN
    memo: dict = {}
    for _ in range(max_len):
        z = model.logits_for(buffer.tokens)
        token, trace = run_pipeline(z, cfg, rng, memo=memo)
        out.append(token)
        traces.append(trace)
        buffer = buffer.push(token)
        if token == eos:
            stop_reason = STOP_EOS
            break
    return GenerationResult(
        prompt_tokens=tuple(int(t) for t in prompt),
        output_tokens=tuple(out),
        traces=tuple(traces),
        stop_reason=stop_reason,
    )


def replay(
    result: GenerationResult,
    model: NextTokenModel,
    cfg: SamplerConfig,
    prompt: Sequence[TokenId],
    capacity: int = DEFAULT_CAPACITY,
) -> bool:
    """Re-run generation with identical inputs and report whether the token
    sequence reproduces exactly (the reproducibility audit)."""
    rerun = generate(model, cfg, prompt, max_len=max(1, len(result.output_tokens)), capacity=capacity)
    return rerun.output_tokens == result.output_tokens

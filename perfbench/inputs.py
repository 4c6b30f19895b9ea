"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed (and, for per-round
inputs, the round index), so the same ``--seed`` gives the same corpus, grid
and command lines.  The program under test sees only the generated files
and flags.
"""

from __future__ import annotations

import numpy as np

#: Glyphs the synthetic corpora use.  The end-of-sequence glyph is left out
#: on purpose: generation length is then set by ``--max-len`` except where a
#: sweep row keeps the whole smoothed tail (k >= 40, top_p = 1, min_p = 0).
_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "y", "z", "st", "tr", "ch", "sh", "th", "pl"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "y"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "nd", "ck", "x", "q"]

TEXT_SWEEP = {
    "corpus_chars": 200_000,
    "order": 4,
    "alpha": 0.1,
    "temps": [0.0, 0.6, 1.5],
    "top_ks": [8, 40],
    "top_ps": [0.92, 1.0],
    "min_ps": [0.0, 0.05],
    "max_len": 160,
}

FRAME_ROLLOUTS = {
    "k_grid": [1, 4, 16],
    "steps": 20,
    "trials": 5,
    "height": 8,
    "width": 8,
    "vocab": 16,
}

TRAIN_GENERATE = {
    "corpus_chars": 300_000,
    "order": 5,
    "alpha": 0.1,
    "temp": 1.0,
    "top_k": 24,
    "top_p": 0.95,
    "min_p": 0.02,
    "max_len": 1000,
}


VOCABULARY_SEED = 2026


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def round_seed(seed: int, round_index: int) -> int:
    """The master seed handed to the program for one round of a workload."""
    ss = np.random.SeedSequence(seed, spawn_key=(1000 + round_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def vocabulary(size: int = 600) -> list[str]:
    """Distinct pseudo-words of one to three syllables, ordered by Zipf rank.

    The same for every seed, so that models from different seeds have about
    the same number of contexts.
    """
    gen = _rng(VOCABULARY_SEED, 1)
    words: list[str] = []
    seen = set()
    while len(words) < size:
        n_syl = int(gen.choice([1, 2, 2, 3]))
        word = "".join(
            _ONSETS[gen.integers(len(_ONSETS))] + _VOWELS[gen.integers(len(_VOWELS))]
            + _CODAS[gen.integers(len(_CODAS))]
            for _ in range(n_syl)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def corpus(seed: int, n_chars: int) -> str:
    """Sentences of Zipf-distributed pseudo-words in a seeded order, exactly
    ``n_chars`` long.

    Sentences hold 4 to 12 words, commas fall after about one word in eight,
    and about one word in forty is a number.  Only lowercase letters,
    digits, blank, '.' and ',' occur.
    """
    words = vocabulary()
    gen = _rng(seed, 2)
    ranks = np.arange(1, len(words) + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    parts: list[str] = []
    length = 0
    while length < n_chars:
        n_words = int(gen.integers(4, 13))
        picks = gen.choice(len(words), size=n_words, p=weights)
        sentence = []
        for i, w in enumerate(picks):
            if gen.random() < 0.025:
                token = str(int(gen.integers(0, 2000)))
            else:
                token = words[w]
            if i < n_words - 1 and gen.random() < 0.125:
                token += ","
            sentence.append(token)
        text = " ".join(sentence) + ". "
        parts.append(text)
        length += len(text)
    return "".join(parts)[:n_chars]


def prompt(seed: int) -> str:
    """A short prompt: one of the ten most frequent words and a blank."""
    words = vocabulary()
    return words[int(_rng(seed, 3).integers(10))] + " "

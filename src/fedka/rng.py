"""Deterministic named random streams.

A master seed plus a tuple of string/int tokens identifies an independent
counter-based (Philox) stream. Streams are stable across processes and
platforms (string tokens are hashed with SHA-256, never with the builtin
``hash``), so enabling or disabling one consumer of randomness -- say,
anchor sampling -- never shifts the draws seen by another, such as
mini-batch shuffling or participant selection.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _words(token: int | str) -> list[int]:
    """Encode a token as 32-bit words for SeedSequence entropy."""
    if isinstance(token, (int, np.integer)) and not isinstance(token, bool):
        v = int(token) & (2**64 - 1)
        return [v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF]
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


def stream(master_seed: int, *tokens: int | str) -> np.random.Generator:
    """Independent generator identified by ``(master_seed, *tokens)``."""
    entropy = _words(master_seed)
    for t in tokens:
        entropy.extend(_words(t))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(master_seed: int, *tokens: int | str) -> int:
    """Stable non-negative integer seed for APIs that take a plain seed."""
    return int(stream(master_seed, *tokens).integers(0, 2**63))


"""Seeded generator of session-structured datasets with linear ageing.

Each user gets a fixed base vector and a fixed per-user drift vector;
session i samples scatter around base + (i - 1) * drift. Linear drift is
the simplest ageing model that makes a frozen reference degrade across
sessions. Generation is fully determined by the seed via per-user
SplitMix64 streams, independent of iteration order.

Each user's d * (2 + sessions * samples) normals are drawn as one block
(base, then drift, then each sample's noise in chronological order),
bit-equal to drawing them one at a time from the scalar Box-Muller
stream, and the features are formed with whole-matrix operations that
perform the same IEEE operation on every element as a per-sample loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, check_fields, shown
from .errors import ValidationError
from .ingest import split_work
from .rng import block_normals, mix64


@dataclass(frozen=True)
class SynthConfig:
    """Shape and noise structure of a generated dataset."""

    num_users: int
    num_sessions: int
    samples_per_session: int
    dimension: int
    base_spread: float = 1.0
    drift_scale: float = 0.0
    noise_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        problems = []
        if self.num_users < 1:
            problems.append(f"num_users must be >= 1, got {shown(self.num_users)}")
        if self.num_sessions < 2:
            problems.append(f"num_sessions must be >= 2, got {shown(self.num_sessions)}")
        if self.samples_per_session < 1:
            problems.append(
                f"samples_per_session must be >= 1, got {shown(self.samples_per_session)}"
            )
        if self.dimension < 1:
            problems.append(f"dimension must be >= 1, got {shown(self.dimension)}")
        if not 0 < self.base_spread < math.inf:
            problems.append(f"base_spread must be finite and > 0, got {shown(self.base_spread)}")
        if not 0 <= self.drift_scale < math.inf:
            problems.append(f"drift_scale must be finite and >= 0, got {shown(self.drift_scale)}")
        if not 0 < self.noise_scale < math.inf:
            problems.append(f"noise_scale must be finite and > 0, got {shown(self.noise_scale)}")
        if problems:
            raise ValidationError(problems)


#: Below this many feature values a dataset is drawn in this process only:
#: a child drawing half of 65,536 takes about twice as long as a fork, its
#: wait and the transfer back (about 3 ms).
SPLIT_MIN_VALUES = 1 << 16


def generate(config: SynthConfig) -> Dataset:
    """Materialize the configured dataset; same config -> identical output.

    From SPLIT_MIN_VALUES values on, a forked child (see `ingest.split_work`)
    draws the second half of the users and sends their features as raw
    float64 bytes into the matrix.
    """
    d = config.dimension
    sessions = config.num_sessions
    per_session = config.samples_per_session
    per_user = sessions * per_session
    elapsed = np.arange(sessions, dtype=float)[:, None]  # session - 1
    features = np.empty((config.num_users, sessions, per_session, d))

    def draw(users: range) -> np.ndarray:
        for user_index in users:
            normals = block_normals(mix64(config.seed, user_index), d * (2 + per_user))
            base = config.base_spread * normals[:d]
            drift = config.drift_scale * normals[d : 2 * d]
            ageing = base + elapsed * drift
            noise = config.noise_scale * normals[2 * d :].reshape(sessions, per_session, d)
            np.add(ageing[:, None, :], noise, out=features[user_index])
        return features[users.start : users.stop]

    n, mid = config.num_users, config.num_users // 2
    if features.size < SPLIT_MIN_VALUES:
        draw(range(n))
    else:
        split_work(lambda: draw(range(mid)), lambda: draw(range(mid, n)), lambda: features[mid:])
    user_ids = [f"u{user_index:03d}" for user_index in range(config.num_users)]
    return Dataset.from_columns(
        user_ids=[user for user in user_ids for _ in range(per_user)],
        sessions=np.tile(np.repeat(np.arange(1, sessions + 1), per_session), config.num_users),
        order_indices=np.tile(np.arange(per_user), config.num_users),
        features=features.reshape(-1, d),
    )

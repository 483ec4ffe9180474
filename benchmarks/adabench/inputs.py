"""Seeded benchmark inputs.

Every function here is a pure function of its seed: the same seed gives
the same scenarios, clips and scenario files, byte for byte. The program
under test only ever sees what these functions return.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from adastream import synth
from adastream.features import PATCH_SIZE
from adastream.simulator import Scenario

SESSION_DURATION_S = 60.0
PATCH_SCENARIO_DURATION_S = 6.0
REFERENCE_RATE_HZ = 120.0
FOV_DEG = 90.0
# A session plays flat, mid and detailed content in equal thirds. The
# content rows do not depend on the seed: the predictor follows content
# closely, and seeded content moved the streamed pixel rate by about 8%
# between seeds.
CONTENT_DETAIL = (0.3, 0.55, 0.8)
CONTENT_SEED = 0
CONTENT_NOISE = 0.01


def _velocity_profile(rng: np.random.Generator, duration_s: float):
    """A static scene for the first fifth, then triangle sweeps between about
    5 and 75 deg/s, 7.5 of them per duration (8 s each in 60 s)."""
    static_until = float(rng.uniform(0.198, 0.202)) * duration_s
    period = duration_s / float(rng.uniform(7.4, 7.6))
    low = float(rng.uniform(4.9, 5.1))
    high = float(rng.uniform(74.5, 75.5))

    def velocity(t: float) -> float:
        if t < static_until:
            return 1.5
        phase = ((t - static_until) / period) % 1.0
        return low + (high - low) * (1.0 - abs(2.0 * phase - 1.0))

    return velocity


def _bitrate_schedule(rng: np.random.Generator, duration_s: float):
    """High bitrate for the static scene, a mid-session drop, a partial
    recovery. Change points are fractions of the duration."""
    drop_at = round(float(rng.uniform(0.470, 0.480)) * duration_s, 3)
    recover_at = round(drop_at + float(rng.uniform(0.195, 0.205)) * duration_s, 3)
    return ((0.0, 6_000_000.0),
            (drop_at, float(round(rng.uniform(1.98e6, 2.02e6), -3))),
            (recover_at, float(round(rng.uniform(3.98e6, 4.02e6), -3))))


def session_scenario(seed: int, duration_s: float = SESSION_DURATION_S) -> Scenario:
    """A session mixing a static high-bitrate scene, fast velocity sweeps, a
    bitrate drop and three content detail levels."""
    rng = np.random.default_rng(seed)
    velocity = _velocity_profile(rng, duration_s)
    schedule = _bitrate_schedule(rng, duration_s)
    n = int(round(duration_s * REFERENCE_RATE_HZ)) + 1
    ts = np.arange(n) / REFERENCE_RATE_HZ
    mags = np.array([velocity(t) for t in ts]) / REFERENCE_RATE_HZ / (FOV_DEG / 2.0)

    content_rng = np.random.default_rng(CONTENT_SEED)
    third = np.minimum((3 * np.arange(n)) // n, 2)
    feats = np.empty((n, 5))
    for k, detail in enumerate(CONTENT_DETAIL):
        rows = third == k
        base = synth.content_features_for_detail(detail, content_rng).as_array()[:5]
        feats[rows] = np.clip(
            base + content_rng.normal(0.0, CONTENT_NOISE, (int(rows.sum()), 5)), 0.0, 1.0)
    return Scenario(duration_s, FOV_DEG, REFERENCE_RATE_HZ, schedule, ts, mags, feats)


def training_clips(seed: int, count: int) -> list[synth.SyntheticClip]:
    """Clips for labeling and training, drawn as the package draws them."""
    return synth.sample_clips(count, seed)


def grid_clips(seed: int, count: int) -> list[synth.SyntheticClip]:
    """Clips for an ingested grid set: velocities cover 0 to 80 deg/s evenly
    (one per stratum) and content detail stays near 0.55, so the nearest-grid
    lookup sees a dense, similar set whatever the seed."""
    rng = np.random.default_rng([seed, 2000])
    velocity = (np.arange(count) + rng.random(count)) / count * 80.0
    detail = rng.uniform(0.5, 0.6, count)
    return [synth.SyntheticClip(f"grid_{i:04d}", float(velocity[i]), float(detail[i]))
            for i in range(count)]


def _patch_bank(rng: np.random.Generator, n: int = 16) -> np.ndarray:
    """Grayscale patches from flat to highly detailed."""
    y, x = np.mgrid[0:PATCH_SIZE, 0:PATCH_SIZE] / PATCH_SIZE
    bank = np.empty((n, PATCH_SIZE, PATCH_SIZE), dtype=np.uint8)
    for i in range(n):
        detail = i / (n - 1)
        base = 0.3 + 0.4 * (0.5 * x + 0.5 * y)
        noise = rng.random((PATCH_SIZE, PATCH_SIZE)) - 0.5
        waves = np.sin(2 * np.pi * (4 + 40 * detail) * x) * np.sin(
            2 * np.pi * (3 + 30 * detail) * y)
        patch = base + detail * (0.25 * waves + 0.35 * noise)
        bank[i] = np.clip(np.rint(patch * 255.0), 0, 255).astype(np.uint8)
    return bank


def patch_scenario_json(seed: int,
                        duration_s: float = PATCH_SCENARIO_DURATION_S) -> bytes:
    """Scenario file whose frames carry base64 128x128 patches.

    One record per reference tick. Content detail rises from flat to highly
    detailed and back, changing every second; each frame shifts its patch
    so that no two records carry equal bytes.
    """
    rng = np.random.default_rng([seed, 1000])
    bank = _patch_bank(rng)
    velocity = _velocity_profile(rng, duration_s)
    n = int(round(duration_s * REFERENCE_RATE_HZ)) + 1
    segments = int(duration_s) + 1
    segment_detail = np.rint((len(bank) - 1) * (0.5 - 0.5 * np.cos(
        np.linspace(0.0, 2.0 * np.pi, segments)))).astype(int)
    frames = []
    for i in range(n):
        t = i / REFERENCE_RATE_HZ
        patch = np.roll(bank[segment_detail[int(t)]], (i % 7, i % 11), axis=(0, 1))
        frames.append({
            "timestamp": t,
            "mean_ndc_magnitude": velocity(t) / REFERENCE_RATE_HZ / (FOV_DEG / 2.0),
            "patch_b64": base64.b64encode(patch.tobytes()).decode("ascii"),
        })
    payload = {
        "duration_s": duration_s,
        "fov_horizontal_deg": FOV_DEG,
        "reference_rate_hz": REFERENCE_RATE_HZ,
        "bitrate_schedule": [list(p) for p in _bitrate_schedule(rng, duration_s)],
        "frames": frames,
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

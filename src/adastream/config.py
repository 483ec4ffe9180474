"""Optional JSON config file: ladder, Viterbi weights, and surface overrides.

Recognized keys (all optional)::

    {
      "resolutions": [360, 480, 720, 864, 1080],
      "frame_rates": [30, 40, ..., 120],
      "bitrates": [2000000, 3000000, 4000000],
      "viterbi": {
        "frame_rate_weights": [[...], ...],   # full matrix, row = from-state
        "resolution_weights": [[...], ...],
        "emission_floor": 1e-12
      },
      "synthetic": {
        "alpha_temporal": 1.0, "alpha_spatial": 2.5, "alpha_coding": 1.5,
        "bpp_ref": 0.05, "spatial_exponent": 0.8, "content_detail": 0.5
      },
      "simulator": {"iframe_bit_multiplier": 4,
                    "jitter_pct": 0.0}    # both simulate and compare
    }
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .controller import EMISSION_FLOOR, TransitionGraph, default_transition_graph
from .errors import ArgumentError, SchemaError, json_numbers, read_json
from .ladder import DEFAULT_LADDER, Ladder, ladder_values
from .quality import SyntheticQualityParams, synthetic_surface
from .simulator import IFRAME_BIT_MULTIPLIER, check_jitter_pct
from .synth import DEFAULT_BITRATES_BPS


@dataclass(frozen=True)
class Config:
    graph: TransitionGraph
    synthetic_params: SyntheticQualityParams = SyntheticQualityParams()
    iframe_bit_multiplier: int = IFRAME_BIT_MULTIPLIER
    jitter_pct: float = 0.0
    bitrates_bps: tuple[float, ...] = DEFAULT_BITRATES_BPS  # gen-synthetic's grids

    @property
    def ladder(self) -> Ladder:
        return self.graph.ladder


DEFAULT_CONFIG = Config(default_transition_graph(DEFAULT_LADDER))


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _section(raw: dict, name: str, path) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise SchemaError(f"{path}: {name} must be an object")
    return section


def _number(section: dict, key: str, default, where: str) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}.{key} must be a number, got {value!r}")
    return value


def _ladder_values(raw: dict, key: str, default, path, integral: bool = True) -> tuple:
    """``ladder_values`` of a key; load_config refused ints past float."""
    try:
        return ladder_values(raw.get(key, default), key, integral)
    except ArgumentError as exc:
        raise SchemaError(f"{path}: {exc}") from None


_FLOAT_MAX = int(np.finfo(float).max)


def _float_range_int(text: str) -> int:
    """A JSON integer of the config: every number is used as a float, so an
    integer beyond the float range is refused as it is read."""
    value = int(text)
    if abs(value) > _FLOAT_MAX:
        raise SchemaError(f"integer {text[:12]}... of {len(text)} digits is "
                          "beyond the float range")
    return value


def load_config(path=None) -> Config:
    if path is None:
        return DEFAULT_CONFIG
    raw = read_json(path, "JSON", parse_int=_float_range_int)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: config root must be an object")
    _reject_unknown(raw, ("resolutions", "frame_rates", "bitrates",
                          "viterbi", "synthetic", "simulator"), str(path))

    try:
        ladder = Ladder(
            frame_rates_hz=_ladder_values(raw, "frame_rates",
                                          DEFAULT_LADDER.frame_rates_hz, path),
            heights=_ladder_values(raw, "resolutions", DEFAULT_LADDER.heights, path),
        )
    except ArgumentError as exc:
        raise SchemaError(f"{path}: bad ladder: {exc}") from None
    bitrates = _ladder_values(raw, "bitrates", DEFAULT_BITRATES_BPS, path,
                              integral=False)
    if not bitrates or min(bitrates) <= 0 or len(set(bitrates)) != len(bitrates):
        raise SchemaError(f"{path}: bitrates must be a nonempty list of distinct "
                          f"positive numbers, got {list(bitrates)}")

    viterbi = _section(raw, "viterbi", path)
    where = f"{path}: viterbi"
    _reject_unknown(viterbi, ("frame_rate_weights", "resolution_weights",
                              "emission_floor"), where)
    floor = float(_number(viterbi, "emission_floor", EMISSION_FLOOR, where))
    default_graph = default_transition_graph(ladder)
    for key in ("frame_rate_weights", "resolution_weights"):
        if not json_numbers(viterbi.get(key, [])):
            raise SchemaError(f"{where}.{key} must hold numbers only")
    try:
        f_weights, r_weights = (
            np.array(viterbi.get(key, getattr(default_graph, key)), dtype=float)
            for key in ("frame_rate_weights", "resolution_weights"))
    except (TypeError, ValueError) as exc:  # ragged or non-numeric matrices
        raise SchemaError(f"{path}: bad viterbi section: {exc}") from None
    try:
        graph = TransitionGraph(
            frame_rate_weights=f_weights,
            resolution_weights=r_weights,
            ladder=ladder,
            emission_floor=floor,
        )
    except ArgumentError as exc:
        raise SchemaError(f"{path}: bad viterbi section: {exc}") from None

    synthetic = _section(raw, "synthetic", path)
    param_names = [f.name for f in fields(SyntheticQualityParams)]
    _reject_unknown(synthetic, param_names, f"{path}: synthetic")
    try:  # the spatial loss of every rung, at a rate too large to be refused
        params = SyntheticQualityParams(**synthetic)
        synthetic_surface(ladder, np.finfo(float).max, [], params)
    except (ArgumentError, TypeError) as exc:
        raise SchemaError(f"{path}: bad synthetic section: {exc}") from None
    for bitrate in bitrates:  # the surface refuses a rate too small for it
        try:
            synthetic_surface(ladder, bitrate, [], params)
        except ArgumentError as exc:
            raise SchemaError(f"{path}: bitrates: {exc}") from None

    simulator = _section(raw, "simulator", path)
    where = f"{path}: simulator"
    _reject_unknown(simulator, ("iframe_bit_multiplier", "jitter_pct"), where)
    multiplier = _number(simulator, "iframe_bit_multiplier", IFRAME_BIT_MULTIPLIER, where)
    jitter = float(_number(simulator, "jitter_pct", 0.0, where))
    if not float(multiplier).is_integer():
        raise SchemaError(f"{where}.iframe_bit_multiplier must be an integer, "
                          f"got {multiplier!r}")
    multiplier = int(multiplier)
    if multiplier < 1:
        raise SchemaError(f"{path}: iframe_bit_multiplier must be >= 1")
    try:
        check_jitter_pct(jitter)
    except ArgumentError as exc:
        raise SchemaError(f"{path}: {exc}") from None

    return Config(graph, params, multiplier, jitter, bitrates)

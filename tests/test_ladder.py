from fractions import Fraction

import pytest

from adastream.errors import ArgumentError
from adastream.ladder import (DEFAULT_LADDER, FRAME_RATES_HZ, MAX_FRAME_RATE_HZ,
                              MAX_HEIGHT, RESOLUTION_LINES, Ladder, VideoMode,
                              objective_cost, pixels_per_second, width_for_height)


def test_ladder_sizes():
    assert len(FRAME_RATES_HZ) == 10
    assert len(RESOLUTION_LINES) == 5
    assert len(DEFAULT_LADDER.modes()) == 50


def test_widths_follow_even_rounding():
    assert DEFAULT_LADDER.widths == (640, 854, 1280, 1536, 1920)


@pytest.mark.parametrize("height,width", [
    (360, 640), (480, 854), (720, 1280), (864, 1536), (1080, 1920)])
def test_width_for_height(height, width):
    assert width_for_height(height) == width


def test_objective_cost_values():
    assert objective_cost(VideoMode(30, 360)) == 3_888_000
    assert objective_cost(VideoMode(60, 720)) == 31_104_000
    # doubling frame rate is cheaper than doubling resolution
    assert objective_cost(VideoMode(60, 360)) == 7_776_000
    assert objective_cost(VideoMode(30, 720)) == 15_552_000
    assert objective_cost(VideoMode(60, 360)) < objective_cost(VideoMode(30, 720))


def test_pixels_per_second_values():
    assert pixels_per_second(VideoMode(60, 1080)) == 124_416_000
    assert pixels_per_second(VideoMode(30, 360)) == 6_912_000
    assert pixels_per_second(VideoMode(120, 480)) == 49_190_400


def test_costs_are_exact_integers():
    for mode in DEFAULT_LADDER.modes():
        assert isinstance(objective_cost(mode), int)
        assert isinstance(pixels_per_second(mode), int)


def test_pixel_ratios_are_exact():
    modes = DEFAULT_LADDER.modes()
    for a in modes[::7]:
        for b in modes[::5]:
            ratio = Fraction(pixels_per_second(a), pixels_per_second(b))
            expected = Fraction(a.frame_rate_hz * a.width * a.height,
                                b.frame_rate_hz * b.width * b.height)
            assert ratio == expected


def test_same_resolution_orderings_agree():
    for h in RESOLUTION_LINES:
        modes = [VideoMode(f, h) for f in FRAME_RATES_HZ]
        by_cost = sorted(modes, key=objective_cost)
        by_pps = sorted(modes, key=pixels_per_second)
        assert by_cost == by_pps


def test_mode_validation():
    with pytest.raises(ArgumentError):
        DEFAULT_LADDER.mode(45, 720)
    with pytest.raises(ArgumentError):
        DEFAULT_LADDER.mode(60, 600)
    assert DEFAULT_LADDER.mode(60, 720) == VideoMode(60, 720)


def test_custom_ladder_validation():
    with pytest.raises(ArgumentError):
        Ladder(frame_rates_hz=(60, 30))
    with pytest.raises(ArgumentError):
        Ladder(heights=())
    with pytest.raises(ArgumentError, match="frame_rates_hz must be at most 1000"):
        Ladder(frame_rates_hz=(60, MAX_FRAME_RATE_HZ + 1))
    with pytest.raises(ArgumentError, match="heights must be at most 100000"):
        Ladder(heights=(720, MAX_HEIGHT + 1))
    small = Ladder(frame_rates_hz=(30, 60), heights=(360, 720))
    assert len(small.modes()) == 4

"""Discrete mode ladder: frame rates, resolutions, and cost functions.

All arithmetic on modes is exact integer arithmetic so that mode comparisons
can never flip under re-evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ArgumentError

FRAME_RATES_HZ: tuple[int, ...] = (30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
RESOLUTION_LINES: tuple[int, ...] = (360, 480, 720, 864, 1080)
# A window then holds at most 2,000 frames, and f * w * h stays below 2**53.
MAX_FRAME_RATE_HZ = 1000
MAX_HEIGHT = 100_000


def width_for_height(height: int) -> int:
    """Width in pixels at 16:9, rounded to the nearest even integer."""
    if height <= 0:
        raise ArgumentError(f"height must be positive, got {height}")
    # 8*height/9 is never an exact half-integer for integer heights,
    # so round() is unambiguous here.
    return 2 * round(8 * height / 9)


@dataclass(frozen=True)
class VideoMode:
    """One (frame rate, resolution) rung on the discrete ladder."""

    frame_rate_hz: int
    height: int

    @property
    def width(self) -> int:
        return width_for_height(self.height)

    def __str__(self) -> str:
        return f"{self.height}p{self.frame_rate_hz}"


@dataclass(frozen=True)
class Ladder:
    """The discrete sets of frame rates and resolutions: the modes a stream
    can run at. Two ladders are equal when they hold the same modes.

    The default ladder is compiled in; alternative ladders can be supplied
    through the JSON config file for experimentation.
    """

    frame_rates_hz: tuple[int, ...] = FRAME_RATES_HZ
    heights: tuple[int, ...] = RESOLUTION_LINES
    widths: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        for name, values, bound in (
                ("frame_rates_hz", self.frame_rates_hz, MAX_FRAME_RATE_HZ),
                ("heights", self.heights, MAX_HEIGHT)):
            if len(values) == 0:
                raise ArgumentError(f"{name} must be nonempty")
            if any(v <= 0 for v in values):
                raise ArgumentError(f"{name} must be positive")
            if max(values) > bound:
                raise ArgumentError(f"{name} must be at most {bound}, got {max(values)}")
            if tuple(sorted(values)) != tuple(values) or len(set(values)) != len(values):
                raise ArgumentError(f"{name} must be strictly ascending")
        object.__setattr__(self, "widths",
                           tuple(width_for_height(h) for h in self.heights))

    @property
    def n_frame_rates(self) -> int:
        return len(self.frame_rates_hz)

    @property
    def n_heights(self) -> int:
        return len(self.heights)

    def frame_rate_index(self, hz: int) -> int:
        try:
            return self.frame_rates_hz.index(hz)
        except ValueError:
            raise ArgumentError(
                f"frame rate {hz} Hz is not on the ladder {self.frame_rates_hz}"
            ) from None

    def height_index(self, height: int) -> int:
        try:
            return self.heights.index(height)
        except ValueError:
            raise ArgumentError(
                f"resolution {height} lines is not on the ladder {self.heights}"
            ) from None

    def mode(self, frame_rate_hz: int, height: int) -> VideoMode:
        """Construct a mode, validating both members against the ladder."""
        self.frame_rate_index(frame_rate_hz)
        self.height_index(height)
        return VideoMode(frame_rate_hz, height)

    def require_mode(self, mode: VideoMode) -> None:
        self.frame_rate_index(mode.frame_rate_hz)
        self.height_index(mode.height)

    def modes(self) -> list[VideoMode]:
        """All modes, frame-rate major."""
        return [VideoMode(f, h) for f in self.frame_rates_hz for h in self.heights]


DEFAULT_LADDER = Ladder()


def objective_cost(mode: VideoMode) -> int:
    """Selection objective: frame rate times the square of the line count.

    This is the quantity minimized when picking an efficient mode. It is kept
    distinct from :func:`pixels_per_second`, which reports true raster
    throughput including the rounded width.
    """
    return mode.frame_rate_hz * mode.height * mode.height


def pixels_per_second(mode: VideoMode) -> int:
    """True raster throughput: frame rate times width times height."""
    return mode.frame_rate_hz * mode.width * mode.height

"""Exception types raised across the package."""


class TrafficForgeError(Exception):
    """Base class for all package-specific errors."""


class MapFormatError(TrafficForgeError):
    """Malformed or degenerate map input (zero-length or duplicated points)."""

    def __init__(self, message, centerline_id=None):
        super().__init__(message)
        self.centerline_id = centerline_id


class OffMapError(TrafficForgeError):
    """A query point is farther from every lane than the snap limit."""

    def __init__(self, distance, limit):
        super().__init__(
            f"point is {distance:.2f} m from the nearest lane "
            f"(snap limit {limit:.2f} m)"
        )
        self.distance = distance
        self.limit = limit


class EmptySceneError(TrafficForgeError):
    """No agent could be instantiated for a scene."""


class MissingProfileError(TrafficForgeError):
    """The profile pool has no entry for the requested maneuver label."""

    def __init__(self, label):
        super().__init__(f"profile pool has no profiles for label {label!r}")
        self.label = label


class ZeroLengthRouteError(TrafficForgeError):
    """A route's centerline collapses to one point: no drivable length."""


class InsufficientDataError(TrafficForgeError):
    """Not enough samples or trajectories for the requested estimate."""


class ConfigError(TrafficForgeError):
    """Invalid configuration; ``violations`` lists every failed field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

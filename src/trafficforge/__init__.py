"""Deterministic multi-agent driving-scenario simulator.

Reconstructs top-view scenes from lane-centerline maps and recorded
tracklets, generates diverse but physically plausible trajectories
(maneuver enumeration, velocity-profile matching, car-following dynamics,
lane changes, tracking controllers), evaluates diversity/realism/accuracy
metrics, and rasterizes bird's-eye-view training tensors.
"""

__version__ = "0.1.0"

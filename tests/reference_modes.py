"""Reference mode tables shared by the tests."""
import math

from tapermode.modes import ModeTable, compute_modes


def linear_reference(config) -> ModeTable:
    """Modes of the same configuration with the taper switched off (L = inf)."""
    return compute_modes(config.replace(funnel_length=math.inf))

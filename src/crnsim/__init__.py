"""Cognitive radar network mode-control simulator.

A central coordinator steers a network of radar/spectrum-sensing nodes with
per-node UCB bandits, tracks Markov-modeled targets with IMM Kalman filters,
and clusters observed behavior into target classes used to tune the filters.
"""

from crnsim.markov import (
    MarkovChain,
    equal_in_state_distribution,
    normalized_entropy,
    sample_next,
)

__all__ = [
    "MarkovChain",
    "equal_in_state_distribution",
    "normalized_entropy",
    "sample_next",
]

__version__ = "0.1.0"

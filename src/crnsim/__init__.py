"""Cognitive radar network mode-control simulator.

A central coordinator steers a network of radar/spectrum-sensing nodes with
per-node UCB bandits, tracks Markov-modeled targets with IMM Kalman filters,
and clusters observed behavior into target classes used to tune the filters.
"""

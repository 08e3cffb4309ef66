"""Road access deprivation modeling.

Computes a distance-agnostic, building-level road accessibility metric
(other buildings obstructing the straight path to the nearest motorable
road), combines it with nearest-road surface type on an equal-area 100 m
grid, classifies cells into low/medium/high road access deprivation, and
scores outputs against community-sourced validation votes.
"""

__version__ = "0.1.0"

"""Deterministic planner and simulator for decentralized swarm transport.

A team of agents is driven from an arbitrary initial formation to a
coverage-optimal final formation over a finite target sample set. The
coordination graph is a layered feed-forward mentor network synthesized
from the initial positions; communication weights are barycentric and
blend smoothly from initial to final values, and clamped (uncooperative)
agents are tolerated as frozen information sources.
"""

__version__ = "0.1.0"

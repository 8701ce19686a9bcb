"""Bilevel online energy management for nanogrids behind a pricing aggregator.

A simulator library and batch CLI: an aggregator posts bidirectional prices
and runs a battery, nanogrids with HVAC units respond, and both sides follow
forecast-free queue-based online policies solved each slot by an iterative
leader/follower equilibrium algorithm.

The package root exports nothing: programs import the submodules
(``nanodr.cli``, ``nanodr.simulator``, ``nanodr.domain``, ...).
"""

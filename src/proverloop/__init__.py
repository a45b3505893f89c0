"""Lifelong premise retrieval and proof search over repository fixtures.

The package wires a curriculum of theorem repositories into repeated
retriever training rounds, guards old knowledge with a quadratic anchor
penalty, attempts open goals with best-first search after each round, and
scores the run with forgetting and plasticity metrics.
"""

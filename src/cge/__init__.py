"""Toolkit for offline collective graph exploration: exact and approximate
solvers, solution verification, a vertex-cover-parameterized equation-system
compiler, and the bin-packing hardness reductions.
"""

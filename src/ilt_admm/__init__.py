"""Inverse lithography mask synthesis: a coherent imaging model and an
ADMM solver with total-variation and binarity regularization."""

__version__ = "0.1.0"

"""Certified lower/upper brackets for multiplier norms on finitely generated groups."""

__version__ = "0.1.0"

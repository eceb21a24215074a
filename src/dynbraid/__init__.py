"""Dynnikov coordinates, Dynnikov matrices and train-track spectra of braids."""

from .braid import BraidWord, compose, identity_word, inverse, parse_braid, parse_braid_file
from .coords import DynnikovVector
from .update import apply_braid, apply_generator, traced_apply

__all__ = [
    "BraidWord",
    "DynnikovVector",
    "apply_braid",
    "apply_generator",
    "compose",
    "identity_word",
    "inverse",
    "parse_braid",
    "parse_braid_file",
    "traced_apply",
]

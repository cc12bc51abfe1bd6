"""The global optimizer surrounding the dynamic-compilation analyses."""

from .pipeline import OptOptions, OptStats, optimize

__all__ = ["OptOptions", "OptStats", "optimize"]

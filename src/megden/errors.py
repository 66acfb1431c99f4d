"""Exception types shared across the package."""

__all__ = ["DatasetError", "DepthError", "StructureError"]


class DepthError(ValueError):
    """Requested decomposition depth exceeds what the signal length allows."""


class StructureError(ValueError):
    """Array dimensions or recorded length bookkeeping are inconsistent."""


class DatasetError(ValueError):
    """A dataset file violates the expected layout; message carries file and line."""

"""Embedded interoperability libraries (§3.4.2).

ONNX Runtime, DL4J and SavedModel are one :class:`EmbeddedLibrary` each,
told apart by their calibration profiles (``repro.calibration``).
"""

from repro.serving.embedded.library import EmbeddedLibrary

__all__ = ["EmbeddedLibrary"]

"""Non-left-orderability certificates for surgeries on twisted torus knots."""

__version__ = "0.1.0"

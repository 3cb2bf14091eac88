"""Exception types shared across the package."""


class CnvFuseError(Exception):
    """Base class for all cnvfuse errors."""


class TooFewSnps(CnvFuseError):
    """Track too short for a robust noise estimate."""


class DegenerateSignal(CnvFuseError):
    """Trimmed LogR values carry no variation."""


class ZeroPivot(CnvFuseError):
    """Tridiagonal elimination met a vanishing pivot (input not SPD)."""


class NonFiniteInput(CnvFuseError):
    """Input vector contains NaN or infinite entries."""


class TrackFormatError(CnvFuseError):
    """Malformed SNP track file."""

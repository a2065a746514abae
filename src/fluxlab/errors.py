"""Exception types raised across the package."""


class FluxlabError(Exception):
    """Base class for all package-specific errors."""


class SpecTooCoarse(FluxlabError):
    """Grid spacing too large for the requested domain geometry."""


class SpecTooFine(FluxlabError):
    """Spacing too fine for the domain: a lattice window too large to
    allocate, or a step below the shapes' containment tolerance."""


class DisconnectedDomain(FluxlabError):
    """The active vertex set splits into several components."""


class NoSuchHole(FluxlabError):
    """Hole index outside 1..k."""


class LengthMismatch(FluxlabError):
    """Flux vector length does not match the number of holes."""


class MissingEdge(FluxlabError):
    """A loop edge is not present in the link field's lattice."""


class InconsistentSizes(FluxlabError):
    """Grid, link field and potential sizes disagree."""


class BadSlit(FluxlabError):
    """Slit path endpoints do not lie on two distinct boundary components."""


class TooFewPoints(FluxlabError):
    """Circle discretization needs at least 8 points."""


class NoConvergence(FluxlabError):
    """Eigensolver hit its iteration cap; best residuals attached."""

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class NonHalfIntegerFlux(FluxlabError):
    """A circulation is neither integer nor half-integer."""


class InconsistentHolonomy(FluxlabError):
    """A cycle phase mismatch on the cover is not a multiple of 2*pi."""


class DisconnectedCover(FluxlabError):
    """Operation requires a connected twofold cover."""


class NoSignChange(FluxlabError):
    """Function has no sign change on the cover; no contour exists."""


class EmptyFamily(FluxlabError):
    """Slit family is empty."""


class ConfigError(FluxlabError):
    """Malformed experiment configuration."""

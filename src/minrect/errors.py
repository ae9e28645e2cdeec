"""Exception types raised across the package."""


class MinrectError(Exception):
    """Base class for all package errors."""


class InvalidCamera(MinrectError):
    """Camera parameters violate an invariant (intrinsics shape, rotation, size)."""


class InvalidRig(MinrectError):
    """Stereo rig is ill-formed, e.g. coincident optical centers."""


class SingularProjection(MinrectError):
    """A*R is not invertible within the conditioning bound."""


class BadDimensions(MinrectError):
    """Image dimensions below the 2x2 minimum."""


class PoleAtY(MinrectError):
    """Requested y-intercept sits at a pole of the distortion function."""


class DegenerateCenter(MinrectError):
    """Distortion denominator vanishes for the given w vector."""


class DegenerateC(MinrectError):
    """[C]_22 is exactly zero or a quartic coefficient is not finite."""


class AllCoefficientsZero(MinrectError):
    """Every polynomial coefficient is zero."""


class NoAdmissibleRoot(MinrectError):
    """All stationary points fall inside pole-exclusion zones."""


class DegenerateZ(MinrectError):
    """The horizon ray is parallel to the baseline."""


class CollapsedMidlines(MinrectError):
    """Image edge midlines collapse under the homography; shear undefined."""


class SingularHomography(MinrectError):
    """Homography is not invertible."""


class DegenerateOrientation(MinrectError):
    """Reference camera axis is parallel to the baseline."""


class EmptyDomain(MinrectError):
    """Every scan sample is pole-excluded."""


class MalformedHeader(MinrectError):
    """PNM header does not parse."""


class InvalidCalibration(MinrectError):
    """An input file (calibration, homographies) or output size fails validation."""


class UnsupportedMaxval(MinrectError):
    """PNM maxval outside the supported 8-bit range."""


class PipelineError(MinrectError):
    """Failure inside the rectification pipeline, labelled with its stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")

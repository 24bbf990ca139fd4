"""Explicit Z2 harmonic functions and 1-forms with numerical verification."""

from .branch import (BranchState, HalfPower, continue_branch, continue_straight,
                     monodromy, monodromy_and_winding, principal_state,
                     winding_number)
from .defining import (BivariatePolynomial, DefiningFunction, Node,
                       ProductOfLines, RamifiedCover, UnivariatePolynomial)
from .forms import (AxialForm, PlanarForm, ReHPowerForm, sample_sigma,
                    vanishing_order)
from .paths import Polyline, circle
from .report import Check, VerificationReport
from .suites import normalize_descriptor, run_suite
from .sun import DoubleCoverGrid, SunPipeline, ZonalPoly, zonal

__all__ = [
    "BranchState", "HalfPower", "continue_branch", "continue_straight",
    "monodromy", "monodromy_and_winding", "principal_state", "winding_number",
    "BivariatePolynomial", "DefiningFunction", "Node", "ProductOfLines",
    "RamifiedCover", "UnivariatePolynomial",
    "AxialForm", "PlanarForm", "ReHPowerForm", "sample_sigma",
    "vanishing_order",
    "Polyline", "circle",
    "Check", "VerificationReport", "normalize_descriptor", "run_suite",
    "DoubleCoverGrid", "SunPipeline", "ZonalPoly", "zonal",
]

__version__ = "0.1.0"

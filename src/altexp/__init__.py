"""Alternating exponential functions of three variables.

Evaluation, discrete orthogonality on shifted lattices, the alternating
discrete Fourier transform and its inverse, alternating trigonometric
interpolation, quadrature-based error estimates and an identity
verification suite.
"""

from .domain import GridSpec, domain_table
from .functions import (eval_E, operator_eigenvalue, point_product_identity,
                        product_indices, shift_phase, sigma_k)
from .interpolation import (InterpolantAlt, alt_interpolate_direct, eval_psi_alt,
                            eval_psi_alt_tensor)
from .quadrature import BumpParams, bump, continuous_gram_entry, interpolation_error
from .io import FormatError, MissingKeyError
from .transform import (CoefficientSet, ParityError, SampleSet, adft_forward,
                        adft_inverse)

__version__ = "0.1.0"

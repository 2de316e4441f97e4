"""Alternating exponential functions of three variables.

Evaluation, discrete orthogonality on shifted lattices, the alternating
discrete Fourier transform and its inverse, trigonometric interpolation
(alternating and standard), quadrature-based error estimates and an
identity verification suite.
"""

from .domain import (GridSpec, canonicalize, domain_size, domain_table,
                     enumerate_domain, grid_points, in_fundamental_domain,
                     is_semidominant, weight_g)
from .functions import (eval_E, operator_eigenvalue, point_product_identity,
                        product_indices, shift_phase, sigma_k)
from .interpolation import (InterpolantAlt, InterpolantStd, ParityError,
                            alt_coefficient_count, alt_interpolate_direct,
                            alt_interpolate_remap, eval_psi_alt,
                            eval_psi_alt_tensor, eval_psi_std,
                            remap_beta_to_c, rescale_to_period,
                            std_interpolate)
from .quadrature import (BumpParams, bump, continuous_gram_entry,
                         integrate_over_F, interpolation_error)
from .io import FormatError, MissingKeyError
from .transform import (CoefficientSet, SampleSet, adft_forward, adft_inverse,
                        discrete_gram)

__version__ = "0.1.0"

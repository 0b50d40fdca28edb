"""opcalc: integrals and transforms by differential-operator calculus.

Exact rational/π arithmetic, formal operator words acting on ramp sums and
closed-form kernels, Borwein-type sinc-product enumeration, and an
independent quadrature oracle for validation.
"""

from .borwein import (SincProductSpec, borwein_deficit, borwein_exact,
                      coefficient_identity_check, sinc_cos_product_integral,
                      sinc_power_gaussian)
from .classify import RouteClass, classify
from .exact import (ComplexRational, ExactValue, Rational, Residue,
                    double_factorial)
from .kernels import (GaussianChain, LogChain, PiecewiseExp, eval_kernel, gaussian_chain,
                      green_function, one_over_y_chain, with_representatives)
from .operators import (OperatorTerm, OperatorWord, RampSum, apply_word,
                        decompose, eval_limit_at_zero)
from .oracle import QuadReport, quad_interval, quad_real_line
from .parser import parse_expression, to_source
from .result import TransformResult
from .series import (Majorant, PowerSeries, finite_interval_transform,
                     laplace_laurent, majorant_abscissa, taylor_of)
from .transforms import (FourierImage, TaylorProfile, fourier_regularized,
                         fourier_via_delta, integrate_half_line,
                         integrate_rational_trig, integrate_real_line,
                         laplace_formal, laplace_regularized, pw_pairing)

__version__ = "0.1.0"

__all__ = [
    "SincProductSpec", "borwein_deficit", "borwein_exact",
    "coefficient_identity_check", "sinc_cos_product_integral",
    "sinc_power_gaussian",
    "RouteClass", "classify",
    "ComplexRational", "ExactValue", "Rational", "Residue", "double_factorial",
    "GaussianChain", "LogChain", "PiecewiseExp", "eval_kernel", "gaussian_chain",
    "green_function", "one_over_y_chain", "with_representatives",
    "OperatorTerm", "OperatorWord", "RampSum", "apply_word", "decompose",
    "eval_limit_at_zero",
    "QuadReport", "quad_interval", "quad_real_line",
    "parse_expression", "to_source",
    "TransformResult",
    "Majorant", "PowerSeries", "finite_interval_transform", "laplace_laurent",
    "majorant_abscissa", "taylor_of",
    "FourierImage", "TaylorProfile", "fourier_regularized", "fourier_via_delta",
    "integrate_half_line", "integrate_rational_trig", "integrate_real_line",
    "laplace_formal", "laplace_regularized", "pw_pairing",
]

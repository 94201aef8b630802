"""Exact toolkit for polynomial curves with rational rotation-minimizing frames.

Quaternion-polynomial algebra over Q(sqrt(d)), Pythagorean hodographs,
the rotation indicatrix with certificate verification and search,
membership and structure classification, constructive families, and
symbolic/numeric frame generation.

The classifier is imported as ``from rrmf.classify import classify``;
the package does not re-export it, so ``rrmf.classify`` stays the module.
"""

from .scalars import ComplexScalar, Scalar, SurdBaseMismatch, format_scalar, parse_scalar
from .quaternions import Quaternion
from .polynomials import (ComplexPoly, InexactDivision, QuatPoly,
                          RationalFunction, RealPoly, exact_divide,
                          gcd_complex, gcd_real, reduce_fraction)
from .hodograph import (CoreDecomposition, CurvePosition, Hodograph, core_of,
                        has_coprime_components, hodograph_of, integrate,
                        is_primitive)
from .indicatrix import (IndicatrixPair, RhoEta, han_fraction, han_numerator,
                         inner_product_poly, omega1, rho_eta,
                         rotation_indicatrix, verify_han)
from .classify import (Classification, GeneratorAnalysis,
                       IndicatrixCoefficients, Membership,
                       MembershipStatus, ReducedForm, TrivialWitness,
                       cancel_indicatrix, gcd_with_complex,
                       has_vanishing_indicatrix, hodograph_span_rank,
                       indicatrix_coefficients, is_planar, rrmf_membership,
                       search_certificate, trivial_witness)
from .construct import (ConstructionError, CubicSpec, FElement, QuarticResult,
                        QuarticSpec, make_cubic, make_cubic_monic,
                        make_f_element, make_quartic, make_spatial_family,
                        make_trivial)
from .frames import (CertificateError, FrameSample, SymbolicFrame,
                     certificate_generator, erf_symbolic, rmf_symbolic,
                     rotate_frame, sample_frames, write_frames_csv)
from .documents import (DocumentError, PolyDocument, document_for,
                        document_to_dict, dumps_document, parse_document)

__version__ = "0.1.0"

"""Numerical toolkit for the right lemniscate of Bernoulli as a subordination target.

Three layers:

* boundary machinery -- regions, the boundary parametrization, and the jet
  data (r, s, tau_min) at each (theta, m);
* admissibility -- verdicts for the catalogued differential functionals
  from a theta scan that minimizes each boundary ray over m >= n exactly,
  exact t-minimization for second-order ones, and bisection
  recovery of every tabulated coefficient bound;
* function-level verification -- truncated series arithmetic, the
  z f'(z)/f(z) transform, and subordination checks by image containment.
"""

__version__ = "0.1.0"

from .admissibility import (GridSpec, Profile, Verdict, Witness,
                            check_admissible, min_over_t, scan_profile)
from .boundary import (THETA_EPS, AdmissibleTriple, curvature_identity,
                       make_triple)
from .catalog import (LEMMAS, ArityError, DerivOverP, FirstOrderPlus,
                      LemmaSpec, OnePlus, ParameterError, PsiForm,
                      SecondOrderSum, SecondOrderSquareSum,
                      SecondOrderWeighted, SquarePlus, SquareRational,
                      UnknownLemmaError, closed_form_g, direct_objective,
                      evaluate, get_lemma)
from .geometry import (DELTA, Disk, DomainError, HalfPlaneReLess,
                       LemniscateDelta, MoebiusDisk, PoleError,
                       lemniscate_boundary)
from .series import (NonInvertibleSeriesError, NormalizationError,
                     TruncatedSeries, p_of_f, sqrt_one_plus_z_series)
from .thresholds import (BracketError, ThresholdResult, certified_at,
                         find_beta_threshold)
from .verifier import (ImageProbe, ImplicationReport, hypothesis_series,
                       image_in_region, random_normalized_f,
                       random_normalized_p, sharpness_probe_example2,
                       verify_implication)

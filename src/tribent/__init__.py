"""Exact ternary bent-function analysis and defining-set codes.

Functions F_3^n -> F_3 are analyzed through their Walsh spectra computed
exactly in the cube-root-of-unity integers; non-weakly regular dual-bent
functions yield pre-image defining sets whose linear codes carry three
weights with closed-form distributions.
"""

from .analysis import (
    BentProfile,
    BentType,
    HypothesisError,
    Hypotheses,
    NotBentError,
    PreimageSets,
    Regularity,
    TernaryFunction,
    WalshSpectrum,
    bent_profile,
    coset_structure,
    decode_coefficient,
    establish,
    expected_preimage_sizes,
    expected_s0_minus_s1,
    is_bent,
    is_dual_bent,
    is_plateaued,
    preimage_sets,
    s0_s1,
    walsh_point,
    walsh_spectrum,
)
from .codes import (
    CodeCase,
    DefiningSet,
    LinearCode,
    NegationReport,
    SelectionContext,
    WeightClassifier,
    WeightPrediction,
    build_code,
    enumerator_string,
    negation_check,
    predict_distribution,
    select_defining_set,
    weight_of,
    weight_of_character_sum,
)
from .constructions import (
    GmmfPrediction,
    GmmfSpec,
    PolyExpr,
    PolyParseError,
    QuadraticForm,
    TraceSpec,
    eval_poly,
    gmmf_build,
    gmmf_predict,
    parse_poly,
    quadratic_function,
    quadratic_type,
    trace_function,
)
from .core import (
    DIM_CAP,
    DimensionCapError,
    Eisenstein,
    Subspace,
    decode,
    dot,
    encode,
    is_nondegenerate,
    is_subspace,
    legendre,
    omega_pow,
    orthogonal_complement,
    span,
)
from .fields import ExtField, find_irreducible, is_irreducible
from .fixtures import FIXTURES, get_fixture, run_all_fixtures, run_fixture
from .pipeline import PipelineReport, run_pipeline
from .search import SearchSummary, run_search

__version__ = "0.1.0"

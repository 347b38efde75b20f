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
    is_bent,
    is_dual_bent,
    is_plateaued,
    preimage_sets,
    walsh_point,
    walsh_spectrum,
)
from .codes import (
    CodeCase,
    DefiningSet,
    LinearCode,
    SelectionContext,
    WeightClassifier,
    WeightPrediction,
    build_code,
    enumerator_string,
    message_weights,
    predict_distribution,
    select_defining_set,
)
from .constructions import (
    GmmfPrediction,
    GmmfSpec,
    PolyExpr,
    PolyParseError,
    QuadraticForm,
    TraceSpec,
    eval_poly,
    function_from_spec,
    gmmf_build,
    gmmf_predict,
    parse_poly,
    quadratic_function,
    quadratic_type,
    trace_function,
)
from .core import (
    DimensionCapError,
    Eisenstein,
    Subspace,
    decode,
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

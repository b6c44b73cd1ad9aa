"""linforms: exact extremes of |f(A)| for positive integer linear forms.

Given f(x_1, ..., x_m) = u_1 x_1 + ... + u_m x_m with positive integer
coefficients, the toolkit computes and certifies the minimum number of
distinct values f takes on any k-element integer set, computes the
maximum exactly, classifies the minimizing sets, and scans bounded form
families for structural conjectures.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .certificate import (
    Certificate,
    binary_nf3_certificate,
    check_certificate,
    lower_certificate,
)
from .engine import (
    ExtremalResult,
    MaxResult,
    NfConfig,
    SearchOutcome,
    compute_mf,
    compute_nf,
    enumerate_minimizers,
    exact_nf2,
    search_min,
)
from .forms import (
    LinearForm,
    SubsetSumSet,
    enumerate_normalized,
    has_distinct_subset_sums,
    is_complete,
    normalize_form,
    parse_coeffs,
    subset_sums,
)
from .sets import (
    KSet,
    ValueSet,
    canonicalize,
    composition_vectors,
    image,
    image_mask,
    is_arithmetic_progression,
    reflect_canonical,
)
from .theory import (
    SUITES,
    BinaryClass,
    SuiteBounds,
    VerificationReport,
    classify_binary,
    complete_formula,
    nstar_formula,
    ternary_lower,
    ternary_nf2_table,
    verify_suite,
)
from .explorer import (
    ScanFinding,
    SpectrumReport,
    scan_ap_minimizer_converse,
    scan_completeness_converse,
    spectrum,
)
from .cache import (
    CacheRecord,
    append_record,
    load_records,
    lookup,
    record_from_json,
    record_from_result,
)

__all__ = [
    "__version__",
    "SUITES",
    "BinaryClass",
    "CacheRecord",
    "Certificate",
    "ExtremalResult",
    "KSet",
    "LinearForm",
    "MaxResult",
    "NfConfig",
    "ScanFinding",
    "SearchOutcome",
    "SpectrumReport",
    "SubsetSumSet",
    "SuiteBounds",
    "ValueSet",
    "VerificationReport",
    "append_record",
    "binary_nf3_certificate",
    "canonicalize",
    "check_certificate",
    "classify_binary",
    "complete_formula",
    "composition_vectors",
    "compute_mf",
    "compute_nf",
    "enumerate_minimizers",
    "enumerate_normalized",
    "exact_nf2",
    "has_distinct_subset_sums",
    "image",
    "image_mask",
    "is_arithmetic_progression",
    "is_complete",
    "load_records",
    "lookup",
    "lower_certificate",
    "normalize_form",
    "nstar_formula",
    "parse_coeffs",
    "record_from_json",
    "record_from_result",
    "reflect_canonical",
    "scan_ap_minimizer_converse",
    "scan_completeness_converse",
    "search_min",
    "spectrum",
    "subset_sums",
    "ternary_lower",
    "ternary_nf2_table",
    "verify_suite",
]

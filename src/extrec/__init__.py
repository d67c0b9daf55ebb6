"""extrec: extropy-type information measures of distributions and k-records,
symmetry characterization checks, and a bootstrap symmetry test."""

from .dist import (
    CATALOG,
    Distribution,
    DistributionError,
    SpecParseError,
    make_distribution,
    sample,
    scale,
)
from .quad import QuadResult, QuadStatus, integrate_support, integrate_unit
from .records import RecordLaw, RecordSample, simulate_records
from .measures import (
    MeasureValue,
    cpij_lower,
    cpj,
    crij_upper,
    crj,
    extropy,
    gcpj,
    gcrj,
    kij_record,
    record_cpj_lower,
    record_crj_upper,
    record_gcpj_lower,
    record_gcrj_upper,
)
from .symmetry import (
    ClassC,
    SymmetryReport,
    TestResult,
    Verdict,
    class_c_check,
    delta1,
    delta2,
    delta3,
    delta_crij,
    delta_kij,
    empirical_cpj,
    empirical_crj,
    eta,
    symmetry_test,
    verify_characterizations,
)

__version__ = "0.1.0"

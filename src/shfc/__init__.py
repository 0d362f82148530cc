"""Exact-arithmetic sheaf cohomology on projective space.

Graded modules over k[x0..xn] (k = F_p or Q) are presented by matrices,
resolved minimally, and dualized into Ext strands; sheaf cohomology,
Castelnuovo-Mumford regularity, the level invariant, Beilinson tables, and
Frobenius-amplitude certificates all read off from there. Everything is
exact — no floats anywhere.
"""

from .cohomology import (
    CohomologyTable,
    cohomology_table,
    euler_characteristic_line,
    line_bundle_oracle,
    sheaf_cohomology_dim,
)
from .constructions import (
    direct_sum,
    koszul_kernel,
    omega,
    q_power_pullback,
    sym_power,
    tensor,
    twist,
)
from .invariants import (
    AmplitudeProbe,
    BeilinsonTable,
    LevelResult,
    LocalFreenessError,
    PhiCertificate,
    amplitude_probe,
    beilinson_e1,
    beilinson_euler_mismatch,
    level,
    locally_free_probe,
    phi_certificate,
    sheaf_regularity,
)
from .moduleio import (
    dump_module,
    load_module,
    parse_module,
    presentation_from_dict,
    presentation_to_dict,
    save_module,
)
from .modules import GradedFreeModule, GradedMap
from .resolutions import (
    MINUS_INFINITY,
    BettiTable,
    FreeResolution,
    Presentation,
    betti_table,
    hilbert_function,
    minimal_free_resolution,
    module_regularity,
    verify_strand_exactness,
)
from .rings import (
    AlgebraError,
    InternalError,
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    parse_polynomial,
)
from .rng import Lcg
from .suites import (
    SUITES,
    VerificationReport,
    verify_beilinson,
    verify_bott,
    verify_key_theorem,
    verify_oracle,
    verify_regularity_tensor,
    verify_subadditivity,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "AmplitudeProbe",
    "BeilinsonTable",
    "BettiTable",
    "CohomologyTable",
    "FreeResolution",
    "GradedFreeModule",
    "GradedMap",
    "InternalError",
    "Lcg",
    "LevelResult",
    "LocalFreenessError",
    "MINUS_INFINITY",
    "ParseError",
    "PhiCertificate",
    "Polynomial",
    "Presentation",
    "Ring",
    "RingMismatchError",
    "SUITES",
    "VerificationReport",
    "amplitude_probe",
    "beilinson_e1",
    "beilinson_euler_mismatch",
    "betti_table",
    "cohomology_table",
    "direct_sum",
    "dump_module",
    "euler_characteristic_line",
    "hilbert_function",
    "koszul_kernel",
    "level",
    "line_bundle_oracle",
    "load_module",
    "locally_free_probe",
    "minimal_free_resolution",
    "module_regularity",
    "omega",
    "parse_module",
    "parse_polynomial",
    "phi_certificate",
    "presentation_from_dict",
    "presentation_to_dict",
    "q_power_pullback",
    "save_module",
    "sheaf_cohomology_dim",
    "sheaf_regularity",
    "sym_power",
    "tensor",
    "twist",
    "verify_beilinson",
    "verify_bott",
    "verify_key_theorem",
    "verify_oracle",
    "verify_regularity_tensor",
    "verify_strand_exactness",
    "verify_subadditivity",
    "__version__",
]

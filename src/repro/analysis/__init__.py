"""Static-analysis subsystem: IR verifier, structural checker, lock lint.

Three passes, one finding model (see :mod:`repro.analysis.findings`):

* pass 1, ``ir`` — :mod:`repro.analysis.verifier` proves compiled
  programs well-formed without executing them;
* pass 2, ``structure`` — :mod:`repro.analysis.structure` proves CSR
  payloads canonical at the trust boundaries;
* pass 3, ``locks`` — :mod:`repro.analysis.lockcheck` enforces the
  ``# guarded-by:`` lock-discipline annotations.

Surfaced as ``repro analyze`` (CI gate) and ``Session(verify=...)``
(runtime verification, memoized per program digest).
"""

from repro.analysis.findings import (AnalysisError, Finding, StructureError,
                                     VerificationError)
from repro.analysis.lockcheck import lint_file, lint_paths
from repro.analysis.structure import check_csr, require_valid_csr
from repro.analysis.verifier import (OFFSET_LIMIT, assert_program_valid,
                                     check_offset_arrays, require_offset,
                                     verify_program)

__all__ = [
    "AnalysisError",
    "Finding",
    "StructureError",
    "VerificationError",
    "OFFSET_LIMIT",
    "assert_program_valid",
    "check_csr",
    "check_offset_arrays",
    "lint_file",
    "lint_paths",
    "require_offset",
    "require_valid_csr",
    "verify_program",
]

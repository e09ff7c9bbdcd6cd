"""Pass 2 — the structural checker: hardened CSR/operand validation.

The canonical-CSR invariants live in one place,
:func:`repro.sparse.csr.csr_problems`:
:class:`~repro.sparse.csr.CSRMatrix` runs it on construction (unless a
builder vouches for them: ``from_canonical``) and raises
:class:`~repro.analysis.findings.StructureError`, so data that crosses a
trust boundary as a ``CSRMatrix`` is checked once.  ``check_csr`` reports the
same invariants as findings for anything with ``indptr / indices / data
/ shape``, and ``require_valid_csr`` enforces them on duck-typed
payloads such as registry uploads.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.findings import Finding, StructureError
from repro.sparse.csr import csr_problems


def check_csr(matrix: Any, context: str = "csr") -> list[Finding]:
    """Structural findings for one CSR-shaped object (empty == canonical)."""
    return [Finding(pass_name="structure", check=check, location=context,
                    message=message)
            for check, message in csr_problems(matrix)]


def structure_error(problems: list[tuple[str, str]],
                    context: str) -> StructureError:
    """The :class:`StructureError` reporting ``csr_problems`` output."""
    findings = [Finding(pass_name="structure", check=check, location=context,
                        message=message) for check, message in problems]
    return StructureError(
        f"{context}: CSR payload failed structural validation: "
        + "; ".join(f.format() for f in findings[:3]),
        findings)


def require_valid_csr(matrix: Any, context: str = "csr") -> Any:
    """Raise :class:`StructureError` unless ``matrix`` is canonical CSR."""
    problems = csr_problems(matrix)
    if problems:
        raise structure_error(problems, context)
    return matrix

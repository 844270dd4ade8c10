"""Downfolded (effective) Hamiltonians over the active-space sub-basis.

Two flavours: the similarity-transformed, generally non-Hermitian one built
from external excitation amplitudes, and the unitarily transformed Hermitian
one built on the CAS columns of e^{sigma_ext}, replayed from a sweep record
or summed from a generator.  Both act on the CAS sub-basis ordered
reference-first, then internal determinants in parent basis order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cluster import AmplitudeOperator, exp_nilpotent
from .errors import OperatorPropertyError
from .fock import FockBasis, determinant_table
from .operators import QOperator, exp_anti_hermitian
from .shape import Determinant, SpinOrbitalPartition


@dataclass
class EffectiveHamiltonian:
    """Downfolded Hamiltonian on the CAS sub-basis."""

    matrix: np.ndarray
    cas: np.ndarray              # parent-basis indices, reference first
    basis: FockBasis             # parent basis
    source: str                  # 'sescc' | 'ducc' | 'ducc-lowest-order'
    hermitian: bool
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def restrict(self, psi: np.ndarray) -> np.ndarray:
        """CAS components of a parent-sector vector."""
        return np.asarray(psi)[self.cas]

    def eigensystem(self):
        """Cached full spectrum (see :func:`cas_eigensolve`)."""
        if self._eig is None:
            self._eig = cas_eigensolve(self)
        return self._eig


def unit_columns(n: int, cas: np.ndarray, dtype) -> np.ndarray:
    """The ``n x len(cas)`` columns ``cas`` of the n x n identity, without
    forming it; in Fortran order, as ``np.eye(n)[:, cas]`` is."""
    cols = np.zeros((n, len(cas)), dtype=dtype, order="F")
    cols[cas, np.arange(len(cas))] = 1.0
    return cols


def ducc_projection(H: QOperator, R: np.ndarray,
                    A: np.ndarray | None = None) -> np.ndarray:
    """CAS block ``R^+ H R - i A`` of e^{-sigma} H e^{sigma} - i e^{-sigma}
    d/dt e^{sigma}, from the CAS columns ``R`` of e^{sigma} and, optionally,
    the anti-Hermitian CAS block ``A = R^+ dR/dt``; refused unless Hermitian
    within round-off."""
    sub = R.conj().T @ (H @ R)
    if A is not None:
        sub = sub - 1j * A
    defect = float(np.linalg.norm(sub - sub.conj().T))
    if not defect <= 1e-10 * max(1.0, float(np.linalg.norm(sub))):   # NaN fails too
        raise OperatorPropertyError(
            f"downfolded matrix unexpectedly non-Hermitian (defect {defect:.3e})")
    return 0.5 * (sub + sub.conj().T)


def downfold_sescc(H: QOperator, t_ext: np.ndarray, ref: Determinant,
                   part: SpinOrbitalPartition) -> EffectiveHamiltonian:
    """(P+Q_int) e^{-T_ext} H e^{T_ext} (P+Q_int) on the CAS sub-basis, for
    the amplitude array ``t_ext`` over the rows of the ``(basis, ref)``
    table.

    Generally non-Hermitian; raises if ``t_ext`` holds a nonzero amplitude
    on an internal or the reference row.
    """
    table = determinant_table(H.basis, ref)
    inside = np.flatnonzero(~table.external(part) & (t_ext != 0))
    if inside.size:
        raise OperatorPropertyError(f"internal signature {table.signatures[inside[0]]} "
                                    "in external amplitude set")
    cas = table.cas(part)
    T = AmplitudeOperator(t_ext, table)
    cols = unit_columns(H.basis.size, cas, float)
    # e^{T}[:, cas] and e^{-T}[cas, :] = (e^{-T^T}[:, cas])^T: CAS columns only
    right = exp_nilpotent(T, cols, H.basis)
    left = exp_nilpotent(-T.T, cols, H.basis).T
    sub = left @ (H @ right)
    return EffectiveHamiltonian(sub, cas, H.basis, "sescc", hermitian=False)


def downfold_ducc(H: QOperator, sigma_ext: np.ndarray, ref: Determinant,
                  part: SpinOrbitalPartition,
                  source: str = "ducc") -> EffectiveHamiltonian:
    """(P+Q_int) e^{-sigma_ext} H e^{sigma_ext} (P+Q_int), Hermitian on CAS,
    on the CAS columns of e^{sigma_ext} from :func:`exp_anti_hermitian`."""
    cas = determinant_table(H.basis, ref).cas(part)
    R = exp_anti_hermitian(sigma_ext, unit_columns(H.basis.size, cas, float))
    return EffectiveHamiltonian(ducc_projection(H, R), cas, H.basis, source, hermitian=True)


def cas_eigensolve(heff: EffectiveHamiltonian):
    """Full spectrum of the effective Hamiltonian.

    Both paths solve in the dtype of the matrix, real for a real ground
    state.  Hermitian path: real ascending eigenvalues, orthonormal
    eigenvectors.  Non-Hermitian path: eigenvalues sorted by real part,
    right eigenvectors normalized to unit 2-norm.
    """
    if heff.hermitian:
        return np.linalg.eigh(heff.matrix)
    vals, vecs = np.linalg.eig(heff.matrix)
    order = np.argsort(vals.real, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    return vals, vecs


def match_root(heff: EffectiveHamiltonian, target_cas: np.ndarray) -> int:
    """Index of the eigenvector with maximal overlap with ``target_cas``.

    Root selection is by eigenvector overlap, not energy ordering: the
    non-Hermitian spectrum can reorder roots.
    """
    vals, vecs = heff.eigensystem()
    t = target_cas / np.linalg.norm(target_cas)
    overlaps = np.abs(vecs.conj().T @ t) / np.linalg.norm(vecs, axis=0)
    return int(np.argmax(overlaps))


# -- export -----------------------------------------------------------------


def effective_to_dict(heff: EffectiveHamiltonian,
                      part: SpinOrbitalPartition | None = None) -> dict:
    """JSON-serializable dump: dense matrix plus metadata."""
    out = {
        "source": heff.source,
        "hermitian": heff.hermitian,
        "dim": heff.dim,
        "parent_sector": {"M": heff.basis.M, "N": heff.basis.N},
        "cas_determinants": [heff.basis.determinant(int(j)).bitstring()
                             for j in heff.cas],
        "matrix_real": heff.matrix.real.tolist(),
        "matrix_imag": heff.matrix.imag.tolist(),
    }
    if part is not None:
        out["partition"] = {
            "occ_inactive": list(part.occ_inactive),
            "occ_active": list(part.occ_active),
            "virt_active": list(part.virt_active),
            "virt_inactive": list(part.virt_inactive),
        }
    return out

"""Downfolded (effective) Hamiltonians over the active-space sub-basis.

Two flavours: the similarity-transformed, generally non-Hermitian one built
from external excitation amplitudes, and the unitarily transformed Hermitian
one built from an anti-Hermitian external generator.  Both act on the CAS
sub-basis ordered reference-first, then internal determinants in parent
basis order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cluster import Amplitudes, excitation_matrix, exp_nilpotent
from .errors import OperatorPropertyError
from .fock import Determinant, FockBasis, SpinOrbitalPartition, determinant_table
from .operators import QOperator, exp_anti_hermitian


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
        return np.asarray(psi, dtype=complex)[self.cas]

    def eigensystem(self):
        """Cached full spectrum (see :func:`cas_eigensolve`)."""
        if self._eig is None:
            self._eig = cas_eigensolve(self)
        return self._eig


def ducc_projection(H: QOperator, sigma: np.ndarray, cas: np.ndarray,
                    sigma_dot: np.ndarray | None = None) -> np.ndarray:
    """CAS block of e^{-sigma} H e^{sigma} - i A(sigma, sigma_dot), Hermitian.

    One series action on the CAS unit columns
    (:func:`ducclab.operators.exp_anti_hermitian`) gives the CAS columns ``R``
    of e^{sigma} and, with ``sigma_dot``, those of ``L = e^{sigma} A``; the
    CAS block of ``A = e^{-sigma} L`` is then ``R^+ L[:, cas]``, and the
    result ``R^+ H R - i A`` (without ``sigma_dot``, only ``R^+ H R``).
    """
    cols = np.eye(len(sigma), dtype=complex)[:, cas]
    if sigma_dot is None:
        R = exp_anti_hermitian(sigma, cols)
        sub = R.conj().T @ H.matrix @ R
    else:
        R, L = exp_anti_hermitian(sigma, cols, sigma_dot)
        sub = R.conj().T @ H.matrix @ R - 1j * (R.conj().T @ L)
    defect = float(np.linalg.norm(sub - sub.conj().T))
    if defect > 1e-10 * max(1.0, float(np.linalg.norm(sub))):
        raise OperatorPropertyError(
            f"downfolded matrix unexpectedly non-Hermitian (defect {defect:.3e})")
    return 0.5 * (sub + sub.conj().T)


def downfold_sescc(H: QOperator, t_ext: Amplitudes, ref: Determinant,
                   part: SpinOrbitalPartition) -> EffectiveHamiltonian:
    """(P+Q_int) e^{-T_ext} H e^{T_ext} (P+Q_int) on the CAS sub-basis.

    Generally non-Hermitian; raises if the amplitude set contains an
    internal signature.
    """
    for sig, _ in t_ext:
        if part.is_internal_signature(sig):
            raise OperatorPropertyError(f"internal signature {sig} in external amplitude set")
    cas = determinant_table(H.basis, ref).cas(part)
    T = excitation_matrix(t_ext, H.basis)
    cols = np.eye(H.basis.size)[:, cas]
    # e^{T}[:, cas] and e^{-T}[cas, :] = (e^{-T^T}[:, cas])^T: CAS columns only
    right = exp_nilpotent(T, cols, H.basis)
    left = exp_nilpotent(-T.T, cols, H.basis).T
    sub = left @ (H.matrix @ right)
    return EffectiveHamiltonian(sub, cas, H.basis, "sescc", hermitian=False)


def downfold_ducc(H: QOperator, sigma_ext: np.ndarray, ref: Determinant,
                  part: SpinOrbitalPartition,
                  source: str = "ducc") -> EffectiveHamiltonian:
    """(P+Q_int) e^{-sigma_ext} H e^{sigma_ext} (P+Q_int), Hermitian on CAS."""
    cas = determinant_table(H.basis, ref).cas(part)
    sub = ducc_projection(H, sigma_ext, cas)
    return EffectiveHamiltonian(sub, cas, H.basis, source, hermitian=True)


def cas_eigensolve(heff: EffectiveHamiltonian):
    """Full spectrum of the effective Hamiltonian.

    Hermitian path: real ascending eigenvalues, orthonormal eigenvectors.
    Non-Hermitian path: complex eigenvalues sorted by real part, right
    eigenvectors normalized to unit 2-norm.
    """
    if heff.hermitian:
        vals, vecs = np.linalg.eigh(heff.matrix)
        return vals, vecs
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


def write_effective_json(heff: EffectiveHamiltonian, path,
                         part: SpinOrbitalPartition | None = None):
    with open(path, "w") as fh:
        json.dump(effective_to_dict(heff, part), fh, indent=2, sort_keys=True)
        fh.write("\n")


def effective_matrix_dump(heff: EffectiveHamiltonian) -> str:
    """FCIDUMP-like plain-text matrix dump with a basis listing.

    Header line, one line per CAS determinant, then 1-based
    ``re im i j`` entries for the nonzero matrix elements.
    """
    lines = [f"&HEFF DIM={heff.dim} SOURCE={heff.source} "
             f"HERMITIAN={int(heff.hermitian)} M={heff.basis.M} N={heff.basis.N} &END"]
    for rank, j in enumerate(heff.cas):
        lines.append(f"DET {rank + 1} {heff.basis.determinant(int(j)).bitstring()}")
    for i in range(heff.dim):
        for j in range(heff.dim):
            z = heff.matrix[i, j]
            if z != 0:
                lines.append(f"{z.real:.17g} {z.imag:.17g} {i + 1} {j + 1}")
    return "\n".join(lines) + "\n"

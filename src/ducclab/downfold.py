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
from .operators import QOperator, check_anti_hermitian, eigh_direct_sum


@dataclass
class EffectiveHamiltonian:
    """Downfolded Hamiltonian on the CAS sub-basis."""

    matrix: np.ndarray
    cas: np.ndarray              # parent-basis indices, reference first
    basis: FockBasis             # parent basis
    source: str                  # 'sescc' | 'ducc' | 'ducc-td'
    hermitian: bool
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def lift(self, c: np.ndarray) -> np.ndarray:
        """Embed a CAS vector into the parent sector."""
        full = np.zeros(self.basis.size, dtype=complex)
        full[self.cas] = c
        return full

    def restrict(self, psi: np.ndarray) -> np.ndarray:
        """CAS components of a parent-sector vector."""
        return np.asarray(psi, dtype=complex)[self.cas]

    def eigensystem(self):
        """Cached full spectrum (see :func:`cas_eigensolve`)."""
        if self._eig is None:
            self._eig = cas_eigensolve(self)
        return self._eig


def exp_dexp(sigma: np.ndarray, sigma_dot: np.ndarray | None,
             rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray | None]:
    """Columns ``rows`` of e^{sigma}, and the ``rows`` block of ``A(sigma,
    sigma_dot)`` with ``d/dt e^{sigma} = e^{sigma} A`` (None without
    ``sigma_dot``), from one eigendecomposition.

    The Hermitian ``i sigma = V diag(mu) V^+`` (block by block,
    :func:`ducclab.operators.eigh_direct_sum`) gives ``e^{sigma} = V
    diag(e^{-i mu}) V^+`` and the Daleckii-Krein form ``A = V [(V^+
    sigma_dot V) o phi] V^+``, ``phi_jk = (1 - e^{-z})/z`` at ``z = -i
    (mu_j - mu_k)`` (``phi = 1`` on degenerate pairs), which sums the
    commutator series ``sum_k (-1)^k/(k+1)! ad_sigma^k sigma_dot``.  Raises
    :class:`OperatorPropertyError` when an input is not anti-Hermitian
    within :data:`ducclab.operators.ANTI_TOL`.
    """
    check_anti_hermitian(sigma, "sigma")
    if sigma_dot is not None:
        check_anti_hermitian(sigma_dot, "sigma_dot")
    mu, V = eigh_direct_sum(1j * sigma)
    v = V[rows]
    R = V @ (np.exp(-1j * mu)[:, None] * v.conj().T)
    if sigma_dot is None:
        return R, None
    d = mu[:, None] - mu[None, :]
    # (1 - e^{-z})/z at z = -i d equals e^{i d/2} sin(d/2)/(d/2)
    phi = np.exp(0.5j * d) * np.sinc(d / (2 * np.pi))
    return R, v @ ((V.conj().T @ sigma_dot @ V) * phi) @ v.conj().T


def ducc_projection(H: QOperator, sigma: np.ndarray, cas: np.ndarray,
                    sigma_dot: np.ndarray | None = None) -> np.ndarray:
    """CAS block of e^{-sigma} H e^{sigma} - i A(sigma, sigma_dot), Hermitian.

    With the CAS columns ``R`` of e^{sigma} and the CAS block of ``A`` from
    :func:`exp_dexp`, this is ``R^+ H R - i A``; without ``sigma_dot``, only
    ``R^+ H R``.
    """
    R, A = exp_dexp(sigma, sigma_dot, cas)
    sub = R.conj().T @ H.matrix @ R
    if A is not None:
        sub = sub - 1j * A
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

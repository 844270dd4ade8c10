"""ducclab: a desk-scale verification laboratory for coupled-cluster
downfolding.

Exact wavefunctions of small fermionic systems are decomposed into
double-unitary products of external and internal anti-Hermitian
generators; the resulting downfolded (effective) Hamiltonians -- the
similarity-transformed non-Hermitian flavour and the unitary Hermitian
flavour -- are verified against brute-force full-space references, in both
real and imaginary time.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

#: OPENBLAS_THREAD_TIMEOUT the package sets: an idle OpenBLAS helper thread
#: spins 2**24 cycles (a few ms) after a threaded call before it sleeps, in
#: place of OpenBLAS's default 2**28 (about 0.1 s).  The lab runs many small
#: kernels (n <= 924) with Python work between them, so the default keeps a
#: second core spinning through every Python stretch.  On a 2-vCPU machine
#: (OpenBLAS 0.3.31) this cut the CPU time of a ``ducclab run`` from 0.53 to
#: 0.34 s on a dim-252 quench and from 2.05 to 1.55 s on a dim-924 stationary
#: pipeline, at the same wall time.  The thread count, and so how each kernel
#: splits its work, stays as it is: results do not move.  Set only before
#: numpy loads OpenBLAS (later it has no effect, and the environment would
#: claim a setting the run did not have) and only if the caller has not.
BLAS_THREAD_TIMEOUT = 24
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = str(BLAS_THREAD_TIMEOUT)

from .cluster import (AmplitudeOperator, Amplitudes, cluster_analyze, excitation_matrix,
                      exp_nilpotent, random_amplitudes, sigma_lowest_order,
                      split_amplitudes)
from .downfold import (EffectiveHamiltonian, cas_eigensolve, downfold_ducc,
                       downfold_sescc, ducc_projection, effective_matrix_dump,
                       effective_to_dict, match_root)
from .dynamics import (QuenchStudy, downfolded_quench, evaluate_lagrangians,
                       evaluate_sescc_lagrangian, propagate_full, propagate_internal,
                       sigma_dot_grid)
from .ecc import (EccMatrices, action_deviation, eval_ldt_forms, eval_lh_forms,
                  x_int_ext_bch)
from .errors import (BranchCutError, CasSupportError, ConfigError,
                     ConvergenceError, DuccLabError, IntermediateNormalizationError,
                     InvalidDimensionError, NormDriftError, OperatorPropertyError,
                     OrderingViolationError, SectorMismatchError)
from .fock import (Determinant, DetClass, DeterminantTable, ExcitationSignature,
                   FockBasis, SpinOrbitalPartition, aufbau_reference, build_basis,
                   determinant_table, enumerate_signatures, excitation_pairs,
                   homo_lumo_partition)
from .imagtime import (FlowResult, ImaginaryFlowState, imaginary_evolve,
                       imaginary_step, initial_flow_state)
from .operators import (IntegralSet, QOperator, direct_sum_blocks,
                        hamiltonian_from_integrals, hubbard_integrals, logm_unitary,
                        pairing_integrals, read_fcidump)
from .sweeps import RotationStep, SweepResult, decompose_state, rotation_for_target

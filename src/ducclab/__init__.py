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

from .cluster import (Amplitudes, cluster_analyze, deexcitation_matrix,
                      excitation_matrix, exp_nilpotent, random_amplitudes,
                      sigma_lowest_order, split_amplitudes)
from .downfold import (EffectiveHamiltonian, cas_eigensolve, downfold_ducc,
                       downfold_sescc, ducc_projection, effective_matrix_dump,
                       effective_to_dict, match_root, write_effective_json)
from .dynamics import (QuenchStudy, downfolded_quench, evaluate_lagrangians,
                       evaluate_sescc_lagrangian, propagate_full, propagate_internal,
                       sigma_dot_grid, trajectory_to_csv)
from .ecc import (EccConfiguration, EccMatrices, action_deviation, eval_ldt_forms,
                  eval_lh_forms, x_int_ext_bch)
from .errors import (BranchCutError, CasSupportError, ConfigError,
                     ConvergenceError, DuccLabError, IntermediateNormalizationError,
                     InvalidDimensionError, NormDriftError, OperatorPropertyError,
                     OrderingViolationError, SectorMismatchError)
from .fock import (Determinant, DetClass, DeterminantTable, ExcitationSignature,
                   FockBasis, SpinOrbitalPartition, aufbau_reference, build_basis,
                   determinant_table, enumerate_signatures, excitation_pairs,
                   homo_lumo_partition)
from .imagtime import (FlowResult, ImaginaryFlowState, imaginary_evolve,
                       imaginary_step, initial_flow_state, write_flow_log)
from .operators import (IntegralSet, QOperator, build_hubbard, build_pairing,
                        direct_sum_blocks, hamiltonian_from_integrals,
                        hubbard_integrals, logm_unitary, pairing_integrals,
                        read_fcidump)
from .sweeps import RotationStep, SweepResult, decompose_state, rotation_for_target

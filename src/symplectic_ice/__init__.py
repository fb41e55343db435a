"""Exact-arithmetic toolkit for stochastic symplectic ice models.

Four model families on a 2n x L lattice with U-turn caps (uncolored
reflecting, uncolored absorbing-and-emitting, signed-colored,
positive-colored): Boltzmann weight tables, exact partition functions by
one sparse column transfer (with state enumeration kept as the state
stream and as an independent check), machine verification of every local
and global identity the models satisfy, and seeded Monte Carlo sampling
of the associated interacting particle dynamics, validated against an
exact outcome law computed in one row-transfer pass.

All numerics are exact rationals; identity checks are polynomial identity
testing at random rational points with exact equality.
"""

from .rationals import (DomainError, ParamPoint, SamplingError,
                        in_stochastic_regime, sample_point,
                        sample_regime_point, zprime)
from .weights import (Family, Model, UsageError, alphabet, cap_map, cap_weight,
                      pattern_table, stochastic_row_check, stochastic_row_sums,
                      vertex_weight)
from .diagram import WiringDiagram, Node
from .lattice import (Configuration, LatticeSpec, Partition, Rows, SignedPermutation,
                      SpecError, all_plain_permutations, all_signed_permutations,
                      boundary_assignment, bottom_outcome, count_states,
                      enumerate_states, partition_and_count, partition_function, spec_rows,
                      transfer_right_edge_weights)
from .render import render_state, trace_strands
from .relations import (RelationReport, verify_caduceus, verify_fish,
                        verify_reflection, verify_ybe_colored,
                        verify_ybe_lemma, verify_ybe_uncolored)
from .functional import (UPoint, apply_generator, check_dl_recursion,
                         check_interchange, check_permutation_invariance,
                         check_recursion_si, check_recursion_sn,
                         check_weyl_invariance, closed_form_opposite,
                         d1_normalizer, d2_normalizer, dl_apply, u_from_z,
                         z_from_u, ztilde)
from .dynamics import (ESCAPE, SampleSummary, Sampler, SamplerConfig,
                       SamplerSoundnessError, compare_empirical_to_exact,
                       configuration_weight, exact_outcome_probabilities,
                       exhaustive_distribution, run_sampler,
                       sample_configuration, trajectory_from_configuration)

__version__ = "0.1.0"

"""Unitary braid representations from the Temperley-Lieb algebra.

Builds the three-strand Jones representation from a 2^n x 2^n projector
realization of TL_3(d), verifies all defining relations (Temperley-Lieb,
braid, Yang-Baxter, non-faithfulness powers), and applies the braiding
operator B(n,k) = b1 b2 (and every other braid word) to qubit states in a
single structured pass to generate Bell, generalized GHZ, and cluster-like
entangled states.
"""

from ._kernels import backend as kernel_backend
from .braidlang import BraidWord, evaluate, evaluate_on_state, parse, render
from .braidrep import (BraidRepresentation, bell_matrix, bell_representation,
                       check_braid_relations, check_yang_baxter,
                       generator_power_identity, jones_representation)
from .entangle import (EntanglementReport, entanglement_report, lu_equivalent,
                       measure_qubit, partial_trace, reduced_density,
                       schmidt_rank, vn_entropy)
from .errors import (BraidSyntaxError, CapacityError, DimensionMismatchError,
                     DomainError, TLBraidError, UnknownGateError)
from .gates import gate
from .linalg import (DENSE_CAP_DIM, apply_single_qubit, dagger, kron_all,
                     max_abs, norm, num_qubits, phase_equivalent,
                     state_from_json, state_to_json)
from .reports import RelationCheck, RelationReport
from .states import (STRUCTURED_CAP_QUBITS, StructuredBraidOp, apply_structured,
                     basis_state, bits_to_index, cluster_family,
                     cluster_like_state, ghz_state, index_to_bits, parse_bits,
                     structured_braid_op)
from .tla import (JonesPairs, RepShape, TLParams, check_tl_relations,
                  default_involution_spec, involution_matrix, involution_spec,
                  jones_pairs, local_blocks, tl_params, tl_projectors)
from .verify import verify_cnot_decomposition, verify_psi_ghz_relation

__version__ = "0.1.0"

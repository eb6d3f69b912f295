"""Gate-sequence synthesis for quantum circuits via mixed-integer programming.

Complex unitaries are modeled by their real and imaginary parts, gate
choices through one-hot binaries, and cumulative products through the exact
disaggregated (convex-hull) form of the one-hot product, so that optimal
short circuits can be certified by any LP/MIP solver.  An exhaustive
meet-in-the-middle oracle provides independent ground truth, and a
rolling-horizon pass re-synthesizes windows of long circuits.
"""

from .encoding import (alpha_beta, decode_complex, encode_real, fidelity,
                       j_matrix, su_normalize, trace_parts)
from .errors import (BackendError, ConfigError, DimensionError, GateSetError,
                     MalformedEncodingError, ModelIntegrityError,
                     OracleInconclusiveError, UnitarityError)
from .gates import (ExtendedGate, GateSet, GateSpec, builtin_gate,
                    builtin_names, extend_gate, fibonacci_generators,
                    gate_set_from_dict, gate_set_to_dict, gate_spec,
                    identity_spec, spec_from_dict, spec_to_dict,
                    weave_gate_set)
from .relations import RelationCatalog, detect_relations
from .mip import MipModel
from .solvers import Solution, get_backend, is_oracle_backend
from .oracle import OracleResult, exhaustive_synthesize
from .cuts import CutSelection, apply_cuts
from .formulation import (ModelHandles, SynthesisProblem, SynthesisResult,
                          build_model, effective_instance, extract_and_verify,
                          schedule_depth, synthesize)
from .rho import (RhoConfig, RhoResult, circuit_unitary,
                  find_first_block, rolling_horizon, rolling_horizon_pass,
                  window_gate_set)
from .fixtures import (Fixture, benchmark_registry, brickwork_circuit,
                       depth_corpus, golden_weave_circuit, k4_parity_seed,
                       k5_parity_seed, oracle_corpus, standard_target)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # encoding
    "encode_real", "decode_complex", "su_normalize", "fidelity",
    "alpha_beta", "trace_parts", "j_matrix",
    # errors
    "DimensionError", "MalformedEncodingError", "UnitarityError",
    "GateSetError", "ModelIntegrityError", "OracleInconclusiveError",
    "BackendError", "ConfigError",
    # gates
    "GateSpec", "GateSet", "ExtendedGate", "gate_spec", "identity_spec",
    "builtin_gate", "builtin_names", "extend_gate",
    "fibonacci_generators", "weave_gate_set",
    "spec_from_dict", "spec_to_dict", "gate_set_from_dict", "gate_set_to_dict",
    # relations
    "RelationCatalog", "detect_relations",
    # model and solving
    "MipModel", "Solution", "get_backend", "is_oracle_backend",
    "OracleResult", "exhaustive_synthesize",
    "CutSelection", "apply_cuts",
    "SynthesisProblem", "SynthesisResult", "ModelHandles",
    "build_model", "effective_instance", "extract_and_verify",
    "schedule_depth", "synthesize",
    # rolling horizon
    "RhoConfig", "RhoResult", "circuit_unitary",
    "find_first_block", "rolling_horizon", "rolling_horizon_pass",
    "window_gate_set",
    # fixtures
    "Fixture", "standard_target", "benchmark_registry", "oracle_corpus",
    "depth_corpus", "golden_weave_circuit", "k5_parity_seed",
    "k4_parity_seed", "brickwork_circuit",
]

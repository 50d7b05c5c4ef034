"""Matrix-product reconstruction of mixed states from local window data.

The package namespace carries the names the CLI, the demos and the README
use; everything else is imported from its submodule.
"""

from .measurement import (add_gaussian_noise, block_data_from_counts,
                          exact_block_data, load_block_data, load_counts,
                          save_block_data, save_counts, simulate_counts)
from .metrics import compare_states, fidelity_w_optimized, hs_distance
from .operators import (DenseOperator, load_operator, mpo_from_dense,
                        save_operator)
from .reconstruction import (ReconstructionConfig, RegularizerSpec,
                             check_invertibility_dense,
                             check_invertibility_mpo_spans, reconstruct_mpo)
from .states import (ghz_state, make_state, product_state,
                     random_mpo_via_ancilla, w_state)
from .sweep import SweepConfig, run_sweep, sweep_config_from_json

__version__ = "0.1.0"

__all__ = [
    "add_gaussian_noise", "block_data_from_counts", "exact_block_data",
    "load_block_data", "load_counts", "save_block_data", "save_counts",
    "simulate_counts",
    "compare_states", "fidelity_w_optimized", "hs_distance",
    "DenseOperator", "load_operator", "mpo_from_dense", "save_operator",
    "ReconstructionConfig", "RegularizerSpec", "check_invertibility_dense",
    "check_invertibility_mpo_spans", "reconstruct_mpo",
    "ghz_state", "make_state", "product_state", "random_mpo_via_ancilla",
    "w_state",
    "SweepConfig", "run_sweep", "sweep_config_from_json",
    "__version__",
]

//! Resilience against mobile byzantine edge adversaries (Section 3, Section 5).

pub mod correction;
pub mod cycle_cover;
pub mod expander;
pub mod safe_broadcast;
pub mod tree_compiler;

pub use correction::{
    apply_corrections, l0_threshold_correction, mismatched_arc_count, pack_element,
    sparse_majority_correction, true_mismatch_elements, unpack_element, CorrectionContext,
    CorrectionReport, UnpackableMessage, MAX_ARCS,
};
pub use cycle_cover::{CycleCoverCompiler, CycleCoverReport};
pub use expander::{
    run_expander_compiled, weak_packing_under_attack, ExpanderCompilerReport, WeakPackingReport,
};
pub use safe_broadcast::{
    ecc_safe_broadcast, rs_data_symbols, rs_error_capacity, BroadcastContext, SafeBroadcastReport,
};
pub use tree_compiler::{
    ByzantineCompilerReport, CliqueCompiler, CorrectionVariant, MobileByzantineCompiler,
};

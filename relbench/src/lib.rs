//! Benchmark harness for relogic: workloads, an independent fault-injection
//! reference, output checks and the statistics they need.
//!
//! Nothing in this library links the program under test; the end-to-end
//! harness drives it only through the `relogic-cli` binary and the serve
//! socket protocol. Only the traced run (`src/bin/relbench-trace.rs`) calls
//! the program's libraries.

pub mod checks;
pub mod circuits;
pub mod json;
pub mod refsim;
pub mod stats;
pub mod sys;
pub mod workload;

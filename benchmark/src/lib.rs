#![warn(missing_docs)]
//! The repo benchmark: wall-clock build time, accounted memory and
//! code quality of the CMO pipeline on five named workloads, with a
//! per-layer pass traced from outside the program. `README.md` is the
//! guide; `../BENCHMARK.json` is the contract.

pub mod calibrate;
pub mod expected;
pub mod inputs;
pub mod run;
pub mod staged;
pub mod stats;
pub mod trace;
pub mod workloads;

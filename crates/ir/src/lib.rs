//! The Sidewinder intermediate language.
//!
//! Wake-up conditions cross the phone/hub boundary as a small textual
//! dataflow language (paper §3.3, Fig. 2c):
//!
//! ```text
//! ACC_X -> movingAvg(id=1, params={10});
//! ACC_Y -> movingAvg(id=2, params={10});
//! ACC_Z -> movingAvg(id=3, params={10});
//! 1,2,3 -> vectorMagnitude(id=4);
//! 4 -> minThreshold(id=5, params={15});
//! 5 -> OUT;
//! ```
//!
//! The IR decouples the sensor manager (and thus the application's
//! programming language) from the hub hardware: any hub that can interpret
//! the IR can run any wake-up condition. This crate provides:
//!
//! * [`ast`] — the program representation ([`Program`], [`Stmt`],
//!   [`AlgorithmKind`]) and parameter encoding;
//! * [`parse`] — a hand-rolled lexer/parser for the textual form;
//! * the canonical printer (`Display for Program`), such that
//!   `parse ∘ print` is the identity;
//! * [`validate`] — structural checks a hub performs before admitting a
//!   program (unique ids, define-before-use, arity, value types, parameter
//!   ranges, single `OUT`, no dead nodes);
//! * [`flow`] — the one forward walk that derives every node's rates,
//!   vector length, period and base rate, which the cost model, the
//!   analyzer, the certifier and the image compiler all read.
//!
//! # Example
//!
//! ```
//! use sidewinder_ir::Program;
//!
//! let text = "\
//! ACC_X -> movingAvg(id=1, params={10});
//! 1 -> minThreshold(id=2, params={15});
//! 2 -> OUT;
//! ";
//! let program: Program = text.parse()?;
//! program.validate()?;
//! assert_eq!(program.to_string(), text);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod ast;
pub mod diagram;
pub mod flow;
pub mod fnv;
pub mod parse;
pub mod rewrite;
pub mod validate;

pub use ast::{AlgorithmKind, NodeId, Program, Source, StatFn, Stmt, ValueType, WindowShapeParam};
pub use flow::{ChannelRates, Flow, InputRates, NodeFlow};
pub use parse::ParseError;
pub use rewrite::{canonicalize_ids, live_from_out, Rewrite, StructuralKey};
pub use validate::{validate_located, LocatedValidateError, ValidateError};

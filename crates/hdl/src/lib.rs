//! Shared hardware-description substrate for the AIVRIL2 reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`logic`] — IEEE-1364 four-state scalar logic values (`0`, `1`, `X`, `Z`)
//!   with the standard resolution tables.
//! * [`vec`](mod@vec) — [`LogicVec`], a packed four-state bit vector with
//!   X/Z-propagating arithmetic, shifts, comparisons, concatenation and
//!   part-selects, matching Verilog evaluation semantics.
//! * [`name`] — [`Name`], the inline identifier string both frontends'
//!   ASTs use for names and literal text.
//! * [`scratch`] — the scratch stacks both parsers build their
//!   exact-size AST lists on.
//! * [`vocab`] and [`cursor`] — the keyword and operator tables both
//!   frontends declare with [`vocabulary!`], and the token cursor both
//!   parsers read through.
//! * [`source`] — source files, spans and line/column mapping used by both
//!   language frontends and by the diagnostics engine.
//! * [`diag`] — structured diagnostics with Vivado-style log rendering
//!   (`ERROR: [VRFC 10-91] ... [adder.v:12]`), the raw material the paper's
//!   *Review Agent* distills into corrective prompts.
//! * [`ir`] — the elaborated design intermediate representation shared by
//!   the Verilog and VHDL frontends and executed by the event-driven
//!   simulator, enabling mixed-language simulation exactly as Vivado's
//!   unified compilation flow does.
//!
//! # Example
//!
//! ```
//! use aivril_hdl::vec::LogicVec;
//!
//! let a = LogicVec::from_u64(8, 0x5A);
//! let b = LogicVec::from_u64(8, 0x0F);
//! assert_eq!(a.and(&b).to_u64(), Some(0x0A));
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod cursor;
pub mod diag;
pub mod ir;
pub mod logic;
pub mod name;
pub mod scratch;
pub mod source;
pub mod vec;
pub mod vocab;

pub use bits::{BitsRef, ScratchBuf};
pub use diag::{Diagnostic, Severity};
pub use logic::Logic;
pub use name::Name;
pub use source::{FileId, SourceMap, Span};
pub use vec::LogicVec;

//! Evaluation metrics and paper-table assembly.
//!
//! * [`pass_at_k`] — the unbiased estimator of Chen et al. (2021), the
//!   metric the paper reports (`k = 1` throughout).
//! * [`EvalOutcome`]/[`SampleOutcome`] — per-task, per-sample results
//!   collected by the benchmark harness.
//! * [`render_table1`], [`render_table2`], [`figure3`]/[`render_figure3`]
//!   — assembly and ASCII rendering of every table and figure in the
//!   paper's evaluation section.
//! * [`paper`] — the paper's published numbers, the one place they are
//!   written.

#![warn(missing_docs)]

pub mod paper;
mod passk;
mod tables;

pub use passk::{pass_at_k, suite_pass_at_k};
pub use tables::{
    delta_f, figure3, language_name, render_figure3, render_table1, render_table2, sample_mean,
    suite_metric, suite_metric_with_se, EvalOutcome, Figure3Row, SampleOutcome, Table1Row,
};

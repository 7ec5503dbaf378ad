//! The paper's evaluation section: one module per kind of computation.
//!
//! | Module | Reproduces |
//! |--------|-----------|
//! | [`table1`] | Table 1 — dataset statistics |
//! | [`table2`] | Table 2 — multi-worker training time |
//! | [`case_study`] | Table 3 — word-level case study |
//! | [`grid`] | Figs. 3-9, Tables 4-5 — every metric grid: the nine-method comparison, the ablation variants and the alpha, dropout, embedding-size and depth sweeps |

pub mod case_study;
pub mod grid;
pub mod table1;
pub mod table2;

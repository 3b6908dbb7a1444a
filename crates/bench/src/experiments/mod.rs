//! The registered experiments: one module per paper table/figure (and
//! per extension study), each a [`crate::registry::Experiment`] run by
//! name through `bpfree exp run`.

pub mod btfnt;
pub mod extensions;
pub mod ff_stability;
pub mod freq_estimate;
pub mod graph1;
pub mod graph12;
pub mod graph13;
pub mod graphs4_11;
pub mod leave_one_out;
pub mod opt_ablate;
pub mod ordering_ablate;
pub mod summary_json;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

use crate::registry::Experiment;

/// Registry order: the paper's tables, then its graphs, then the
/// extension studies. `bpfree exp all` runs exactly this sequence.
pub(crate) static REGISTRY: &[&dyn Experiment] = &[
    &table1::Table1,
    &table2::Table2,
    &table3::Table3,
    &table4::Table4,
    &table5::Table5,
    &table6::Table6,
    &table7::Table7,
    &graph1::Graph1,
    &graphs4_11::Graphs4To11,
    &graph12::Graph12,
    &graph13::Graph13,
    &btfnt::Btfnt,
    &extensions::Extensions,
    &ff_stability::FfStability,
    &freq_estimate::FreqEstimate,
    &leave_one_out::LeaveOneOut,
    &opt_ablate::OptAblate,
    &ordering_ablate::OrderingAblate,
    &summary_json::SummaryJson,
];

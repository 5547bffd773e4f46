//@ path: crates/sparse/src/lib.rs
#![forbid(unsafe_code)]

pub fn fold_counts(values: &[u64]) -> u64 {
    tally(values)
}

fn tally(values: &[u64]) -> u64 {
    *values.first().expect("fold_counts needs a batch") //~ no-expect, panic-reachability
}

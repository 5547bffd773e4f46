//@ path: crates/gen/src/pipeline.rs
pub struct Pipeline;

impl Pipeline {
    pub fn count(self, values: &[u64]) -> u64 {
        stage_total(values)
    }
}

fn stage_total(values: &[u64]) -> u64 {
    kron_sparse::fold_counts(values)
}

//@ path: crates/core/src/under_test.rs
pub fn first(values: &[u32]) -> u32 {
    *values.first().unwrap() //~ no-unwrap
}

#[cfg(any(test, feature = "extra"))]
pub fn shipped_with_the_feature(x: Option<u32>) -> u32 {
    x.unwrap() //~ no-unwrap
}

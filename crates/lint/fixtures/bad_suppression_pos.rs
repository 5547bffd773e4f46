//@ path: crates/core/src/under_test.rs
//@ expect: bad-suppression@8
//@ expect: bad-suppression@12
//@ expect: no-unwrap@8
//@ expect: no-unwrap@12

pub fn first(values: &[u32]) -> u32 {
    *values.first().unwrap() // lint:allow(no-unwrap)
}

pub fn second(values: &[u32]) -> u32 {
    *values.get(1).unwrap() // lint:allow(no-unwrap) --
}

// lint:allow(panic-reachability) -- the retired rule is no longer a known name //~ bad-suppression
pub fn third(values: &[u32]) -> u32 {
    values.get(2).copied().unwrap_or(0)
}

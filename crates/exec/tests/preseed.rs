//! The first [`genpar_exec::tune::init`] wins first touch of the global
//! tuner; later settings (a persisted seed arriving after an explicit
//! pin) are ignored.
//!
//! This file holds exactly one test so it owns its test binary: nothing
//! else can initialize the process-global tuner before it runs.

#[test]
fn preseed_seeds_the_global_tuner_before_first_use() {
    // first touch: the seed (clamped to the tuner bounds) wins
    assert!(genpar_exec::tune::init(2048, false));
    assert_eq!(genpar_exec::tune::tuner().rows(), 2048);
    assert!(!genpar_exec::tune::tuner().pinned());
    // a second setting is a no-op: the tuner is already initialized
    assert!(!genpar_exec::tune::init(4096, true));
    assert_eq!(genpar_exec::tune::tuner().rows(), 2048);
    assert!(!genpar_exec::tune::tuner().pinned());
}

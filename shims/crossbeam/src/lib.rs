//! Offline stand-in for the `crossbeam` crate: the multi-producer
//! multi-consumer [`channel`] subset the serving worker pool pulls jobs
//! from. Scoped threads, deques and epochs are out of scope.

pub mod channel;

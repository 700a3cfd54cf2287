//! `Service::finish` is a private method that takes `fix.alpha`, and
//! `Service::plan` a public one that takes `fix.beta`. `other.rs` calls an
//! unrelated `.finish()` and a bare `plan(…)`: the first cannot see the
//! private method outside `service.rs`, the second is no method call, so
//! neither caller acquires a lock class.

pub mod other;
pub mod service;

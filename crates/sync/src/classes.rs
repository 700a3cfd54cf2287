//! The canonical lock-class registry: one source of truth for every named
//! synchronization primitive in the workspace.
//!
//! Three consumers read this module:
//!
//! 1. **The runtime** — `crates/core` constructs its locks with
//!    [`Mutex::named`](crate::Mutex::named) /
//!    [`RwLock::named`](crate::RwLock::named) using these constants, so the
//!    debug lock-order detector ([`crate`] docs) keys its graph on exactly
//!    these class names.
//! 2. **The static analyzer** — `cargo run -p xtask -- analyze` links
//!    against this crate and reads [`ALL`] to learn which classes exist.
//! 3. **Humans** — the `doc` strings say what each lock protects and where
//!    it sits in the global acquisition order.
//!
//! The canonical acquisition order (outermost first) is:
//!
//! ```text
//! laqy.server.tenants  →  laqy.server.gate
//!   →  laqy.wal  →  laqy.catalog  →  laqy.store  →  laqy.inflight.registry
//! laqy.join.memo   (a leaf: taken with no other lock held, none under it)
//! ```
//!
//! The serving-layer classes sit strictly outside the engine's: the
//! tenant registry is held across tenant construction (which opens that
//! tenant's WAL under `laqy.wal`), and an admission-gate guard is always
//! released *before* the admitted query touches any engine lock. Every
//! tenant's gate shares one class name, so holding one tenant's gate
//! while acquiring another's is an inversion by construction — admission
//! is strictly per-tenant.
//!
//! Any code path that acquires against this order shows up twice: the
//! runtime detector panics on the first executed inversion, and the static
//! lock-order pass reports the cycle on *any* path through the call graph,
//! executed or not.

/// The serving-layer tenant registry `RwLock`: tenant lookup takes read
/// guards; tenant creation holds the write guard across the new
/// tenant's WAL recovery so two connections racing the same tenant id
/// can never open two appenders on one directory.
pub const SERVER_TENANTS: &str = "laqy.server.tenants";

/// A per-tenant admission gate (bounded queue + concurrency permits).
/// One class for all tenants: a gate guard is held only inside
/// `admit`/`release`/`drain`, never across query execution or another
/// tenant's gate.
pub const SERVER_GATE: &str = "laqy.server.gate";

/// Condvar paired with [`SERVER_GATE`]; queued requests and the drain
/// loop block here.
pub const SERVER_GATE_CV: &str = "laqy.server.gate.cv";

/// The catalog `RwLock`: table registration and epoch publication.
pub const CATALOG: &str = "laqy.catalog";

/// The WAL mutex: the ingest serialization point. Held across log
/// append + fsync + catalog publish so batches apply in WAL order.
pub const WAL: &str = "laqy.wal";

/// The sample store `RwLock`: queries plan and fetch under read guards
/// and merge under the write guard; ingest absorbs under it after
/// `laqy.wal` is released.
pub const STORE: &str = "laqy.store";

/// The in-flight scan dedup registry `Mutex`: held to claim a plan's
/// keys (all or none) or release them, and by a waiter, which owns no
/// claim, between waits on [`INFLIGHT_CV`].
pub const INFLIGHT_REGISTRY: &str = "laqy.inflight.registry";

/// Condvar paired with [`INFLIGHT_REGISTRY`]; an attempt that found part
/// of its plan claimed blocks here until those keys are released.
pub const INFLIGHT_CV: &str = "laqy.inflight.cv";

/// The service's join memo (join shape → maps and join filter). A leaf:
/// held only to look up or swap an `Arc`, never across a build.
pub const JOIN_MEMO: &str = "laqy.join.memo";

/// Static description of one lock class.
#[derive(Debug, Clone, Copy)]
pub struct LockClassDef {
    /// Exact class name.
    pub name: &'static str,
    /// What the lock protects and where it sits in the canonical order.
    pub doc: &'static str,
}

/// Every lock class in the workspace, outermost-first in the canonical
/// acquisition order.
pub const ALL: &[LockClassDef] = &[
    LockClassDef {
        name: SERVER_TENANTS,
        doc: "serving-layer tenant registry; write guard held across tenant WAL recovery",
    },
    LockClassDef {
        name: SERVER_GATE,
        doc: "per-tenant admission gate; released before the admitted query runs",
    },
    LockClassDef {
        name: SERVER_GATE_CV,
        doc: "condvar paired with laqy.server.gate",
    },
    LockClassDef {
        name: WAL,
        doc: "ingest serialization point; held across WAL append+fsync and catalog publish",
    },
    LockClassDef {
        name: CATALOG,
        doc: "table registry and epoch publication; queries take short read guards to pin an epoch",
    },
    LockClassDef {
        name: STORE,
        doc: "the sample store; read guards plan and fetch, the write guard merges and absorbs",
    },
    LockClassDef {
        name: INFLIGHT_REGISTRY,
        doc: "in-flight scan dedup registry; a plan's keys are claimed all or none, and a waiter owns none",
    },
    LockClassDef {
        name: INFLIGHT_CV,
        doc: "condvar paired with laqy.inflight.registry",
    },
    LockClassDef {
        name: JOIN_MEMO,
        doc: "join shape -> star maps and join filter; a leaf held only to look up or swap an Arc",
    },
];

/// Resolve a lock name to its class entry. Returns `None` for names
/// outside the registry.
pub fn class_of(name: &str) -> Option<&'static LockClassDef> {
    ALL.iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_resolve_and_others_do_not() {
        for def in ALL {
            assert_eq!(class_of(def.name).unwrap().name, def.name);
        }
        assert_eq!(class_of("laqy.store").unwrap().name, STORE);
        assert_eq!(
            class_of("laqy.inflight.registry").unwrap().name,
            INFLIGHT_REGISTRY
        );
        assert!(class_of("laqy.store.shard0").is_none(), "no families");
        assert!(class_of("laqy.unknown").is_none());
    }
}

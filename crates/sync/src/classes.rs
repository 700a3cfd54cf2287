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
//!    against this crate and reads [`ALL`] to learn which classes exist
//!    and which are indexed *families* (e.g. the store shards, acquired in
//!    ascending index order by construction).
//! 3. **Humans** — the `doc` strings say what each lock protects and where
//!    it sits in the global acquisition order.
//!
//! The canonical acquisition order (outermost first) is:
//!
//! ```text
//! laqy.server.tenants  →  laqy.server.gate
//!   →  laqy.wal  →  laqy.catalog  →  laqy.store.shard0..7 (ascending)
//!                →  laqy.inflight.registry0..7  →  laqy.inflight.done
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

/// Maximum shard count of the sharded store (and of the in-flight
/// registry, which mirrors it). The per-shard name arrays below have
/// exactly this many entries.
pub const MAX_STORE_SHARDS: usize = 8;

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

/// Per-entry completion flag of an in-flight sampling operation.
pub const INFLIGHT_DONE: &str = "laqy.inflight.done";

/// Condvar paired with [`INFLIGHT_DONE`]; waiters block here until the
/// owning client finishes its scan.
pub const INFLIGHT_CV: &str = "laqy.inflight.cv";

/// The service's join memo (join shape → maps and join filter). A leaf:
/// held only to look up or swap an `Arc`, never across a build.
pub const JOIN_MEMO: &str = "laqy.join.memo";

/// Family prefix of the per-shard store locks (`laqy.store.shard0`…).
pub const STORE_SHARD_PREFIX: &str = "laqy.store.shard";

/// Family prefix of the per-shard in-flight registries
/// (`laqy.inflight.registry0`…).
pub const INFLIGHT_REGISTRY_PREFIX: &str = "laqy.inflight.registry";

/// One static lock-class name per store shard index. Distinct names make
/// each shard its own node in the lock-order graph, so the detector
/// *enforces* the canonical ascending acquisition order used by
/// whole-store operations (a same-name pool would have its edges skipped).
pub const STORE_SHARD_NAMES: [&str; MAX_STORE_SHARDS] = [
    "laqy.store.shard0",
    "laqy.store.shard1",
    "laqy.store.shard2",
    "laqy.store.shard3",
    "laqy.store.shard4",
    "laqy.store.shard5",
    "laqy.store.shard6",
    "laqy.store.shard7",
];

/// One static lock-class name per in-flight registry shard, mirroring
/// [`STORE_SHARD_NAMES`].
pub const INFLIGHT_REGISTRY_NAMES: [&str; MAX_STORE_SHARDS] = [
    "laqy.inflight.registry0",
    "laqy.inflight.registry1",
    "laqy.inflight.registry2",
    "laqy.inflight.registry3",
    "laqy.inflight.registry4",
    "laqy.inflight.registry5",
    "laqy.inflight.registry6",
    "laqy.inflight.registry7",
];

/// Static description of one lock class (or indexed family of classes).
#[derive(Debug, Clone, Copy)]
pub struct LockClassDef {
    /// Exact class name, or the family prefix when `family` is set.
    pub name: &'static str,
    /// `true` when `name` is a prefix covering indexed members
    /// (`<prefix>0`, `<prefix>1`, …). Intra-family ordering is by
    /// ascending index and is enforced by the runtime detector; the
    /// static pass collapses the family to one node and ignores
    /// family-internal edges.
    pub family: bool,
    /// What the lock protects and where it sits in the canonical order.
    pub doc: &'static str,
}

/// Every lock class in the workspace, outermost-first in the canonical
/// acquisition order.
pub const ALL: &[LockClassDef] = &[
    LockClassDef {
        name: SERVER_TENANTS,
        family: false,
        doc: "serving-layer tenant registry; write guard held across tenant WAL recovery",
    },
    LockClassDef {
        name: SERVER_GATE,
        family: false,
        doc: "per-tenant admission gate; released before the admitted query runs",
    },
    LockClassDef {
        name: SERVER_GATE_CV,
        family: false,
        doc: "condvar paired with laqy.server.gate",
    },
    LockClassDef {
        name: WAL,
        family: false,
        doc: "ingest serialization point; held across WAL append+fsync and catalog publish",
    },
    LockClassDef {
        name: CATALOG,
        family: false,
        doc: "table registry and epoch publication; queries take short read guards to pin an epoch",
    },
    LockClassDef {
        name: STORE_SHARD_PREFIX,
        family: true,
        doc: "one sample-store shard; whole-store operations acquire ascending",
    },
    LockClassDef {
        name: INFLIGHT_REGISTRY_PREFIX,
        family: true,
        doc: "in-flight scan dedup registry shard; claims are never held while waiting",
    },
    LockClassDef {
        name: INFLIGHT_DONE,
        family: false,
        doc: "per-entry completion flag; waiters hold only this while blocked on the condvar",
    },
    LockClassDef {
        name: INFLIGHT_CV,
        family: false,
        doc: "condvar paired with laqy.inflight.done",
    },
    LockClassDef {
        name: JOIN_MEMO,
        family: false,
        doc: "join shape -> star maps and join filter; a leaf held only to look up or swap an Arc",
    },
];

/// Resolve a concrete lock name (e.g. `laqy.store.shard3`) to its class
/// entry, collapsing family members onto the family prefix. Returns
/// `None` for names outside the registry.
pub fn class_of(name: &str) -> Option<&'static LockClassDef> {
    ALL.iter().find(|c| {
        if c.family {
            name.strip_prefix(c.name)
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        } else {
            c.name == name
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_resolve_and_exact_names_match() {
        assert_eq!(class_of("laqy.wal").unwrap().name, WAL);
        assert_eq!(
            class_of("laqy.server.tenants").unwrap().name,
            SERVER_TENANTS
        );
        assert_eq!(class_of("laqy.server.gate").unwrap().name, SERVER_GATE);
        assert_eq!(class_of("laqy.join.memo").unwrap().name, JOIN_MEMO);
        assert_eq!(
            class_of("laqy.server.gate.cv").unwrap().name,
            SERVER_GATE_CV
        );
        assert_eq!(
            class_of("laqy.store.shard5").unwrap().name,
            STORE_SHARD_PREFIX
        );
        assert_eq!(
            class_of("laqy.inflight.registry0").unwrap().name,
            INFLIGHT_REGISTRY_PREFIX
        );
        assert!(class_of("laqy.store.shard").is_none(), "bare prefix");
        assert!(class_of("laqy.store.shardx").is_none(), "non-digit suffix");
        assert!(class_of("laqy.unknown").is_none());
    }

    #[test]
    fn name_arrays_agree_with_prefixes() {
        for (i, n) in STORE_SHARD_NAMES.iter().enumerate() {
            assert_eq!(*n, format!("{STORE_SHARD_PREFIX}{i}"));
        }
        for (i, n) in INFLIGHT_REGISTRY_NAMES.iter().enumerate() {
            assert_eq!(*n, format!("{INFLIGHT_REGISTRY_PREFIX}{i}"));
        }
    }
}

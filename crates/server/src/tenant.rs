//! Tenant namespaces: one [`LaqyService`] (sample store, catalog epoch
//! chain, WAL) per tenant, plus that tenant's admission gate, default
//! budget, and serving counters.
//!
//! Tenants are created lazily on first use, capped by
//! [`ServerConfig::max_tenants`](crate::ServerConfig::max_tenants).
//! Creation holds the registry write lock across the new tenant's WAL
//! recovery on purpose: two connections racing the same tenant id must
//! never open two appenders on one WAL directory. Isolation is
//! structural — each tenant's ingest publishes new table epochs into
//! its *own* catalog (the shared base `Arc<Table>`s are never mutated),
//! so no request of tenant A can observe or delay tenant B's data.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use laqy::{LaqyService, QueryBudget, SessionConfig};
use laqy_engine::Catalog;
use laqy_sync::atomic::{AtomicU64, Ordering};
use laqy_sync::{classes, RwLock};

use crate::admission::Gate;
use crate::protocol::ErrorCode;
use crate::ServerConfig;

/// Longest accepted tenant name; names become directory components.
pub const MAX_TENANT_NAME: usize = 64;

/// One tenant's serving state.
pub struct TenantState {
    /// The validated tenant name.
    pub name: String,
    /// The tenant's private engine service (store + catalog + WAL).
    pub service: LaqyService,
    /// The tenant's admission gate.
    pub gate: Gate,
    /// Default per-request budget, tightened (never relaxed) by the
    /// request's own `timeout_ms`.
    pub default_budget: QueryBudget,
    /// Serving counters, reported via `Stats`.
    pub counters: TenantCounters,
    /// `(snapshot dir, wal dir)` when the server persists tenants.
    pub dirs: Option<(PathBuf, PathBuf)>,
}

/// Generates the per-tenant serving counters from one field list: the
/// wire-visible [`TenantSnapshot`], its live atomics in
/// [`TenantCounters`], `snapshot()`, and the order the `0x86` stats frame
/// carries them in (the list's).
macro_rules! tenant_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Per-tenant serving counters, as reported to clients.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct TenantSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl TenantSnapshot {
            /// Number of counters.
            pub(crate) const FIELDS: usize = [$(stringify!($name),)*].len();

            /// Every counter, in wire order.
            pub(crate) fn values(&self) -> [u64; Self::FIELDS] {
                [$(self.$name,)*]
            }

            /// The snapshot whose counters, in wire order, are `values`.
            pub(crate) fn from_values(values: [u64; Self::FIELDS]) -> Self {
                let [$($name,)*] = values;
                Self { $($name,)* }
            }
        }

        /// Per-tenant serving counters (the wire-visible half of the stats).
        #[derive(Default)]
        pub struct TenantCounters {
            $($name: AtomicU64,)*
        }

        impl TenantCounters {
            /// Snapshot for a `StatsReply`.
            pub fn snapshot(&self) -> TenantSnapshot {
                TenantSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

tenant_counters! {
    /// Queries answered (degraded answers included).
    answers,
    /// Answers that were degraded (budget expired mid-scan).
    degraded,
    /// Requests shed at admission (queue full or admission timeout).
    shed,
    /// Requests rejected because the server was draining.
    rejected_draining,
    /// Ingest batches acknowledged.
    ingest_acks,
    /// Requests that failed with a typed error.
    errors,
}

impl TenantCounters {
    pub(crate) fn note_answer(&self, degraded: bool) {
        self.answers.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected_draining(&self) {
        self.rejected_draining.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_ingest_ack(&self) {
        self.ingest_acks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Why a tenant lookup failed, mapped onto wire error codes.
#[derive(Debug)]
pub enum TenantError {
    /// The name is empty, too long, or carries non-`[A-Za-z0-9_-]`
    /// characters (names become directory components).
    BadName(String),
    /// The tenant cap is reached and the name is new.
    Limit,
    /// The registry is closed for drain and the name is new: existing
    /// tenants still resolve, new ones are refused.
    Draining,
    /// Creating the tenant's persistence (dirs, WAL recovery) failed.
    Persist(String),
}

impl TenantError {
    /// The wire error code for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            TenantError::BadName(_) => ErrorCode::BadRequest,
            TenantError::Limit => ErrorCode::TenantLimit,
            TenantError::Draining => ErrorCode::Draining,
            TenantError::Persist(_) => ErrorCode::Failed,
        }
    }

    /// The wire error message for this failure.
    pub fn message(&self) -> String {
        match self {
            TenantError::BadName(n) => {
                format!("invalid tenant name {n:?}: 1..={MAX_TENANT_NAME} chars of [A-Za-z0-9_-]")
            }
            TenantError::Limit => "tenant limit reached".to_string(),
            TenantError::Draining => "server is draining; new tenants are not accepted".to_string(),
            TenantError::Persist(e) => format!("tenant persistence setup failed: {e}"),
        }
    }
}

/// The map plus the drain latch, guarded together so closing the
/// registry and listing its tenants is one atomic step.
struct Tenants {
    map: HashMap<String, Arc<TenantState>>,
    /// Set by [`TenantRegistry::close`]: existing tenants still
    /// resolve (their gates answer `Draining`), new ones are refused.
    draining: bool,
}

/// The lazy tenant registry.
pub struct TenantRegistry {
    tenants: RwLock<Tenants>,
    base_catalog: Catalog,
    config: Arc<ServerConfig>,
}

impl TenantRegistry {
    /// An empty registry over the shared base catalog.
    pub fn new(base_catalog: Catalog, config: Arc<ServerConfig>) -> Self {
        Self {
            tenants: RwLock::named(
                classes::SERVER_TENANTS,
                Tenants {
                    map: HashMap::new(),
                    draining: false,
                },
            ),
            base_catalog,
            config,
        }
    }

    /// Look up a tenant, creating it on first use. The read path is a
    /// shared-lock hash lookup; creation takes the write lock and
    /// re-checks under it. Once [`close`](TenantRegistry::close) has
    /// run, creation is refused with [`TenantError::Draining`].
    pub fn get_or_create(&self, name: &str) -> Result<Arc<TenantState>, TenantError> {
        if !valid_name(name) {
            return Err(TenantError::BadName(name.to_string()));
        }
        if let Some(t) = self.tenants.read().map.get(name) {
            return Ok(Arc::clone(t));
        }
        let mut tenants = self.tenants.write();
        if let Some(t) = tenants.map.get(name) {
            return Ok(Arc::clone(t));
        }
        if tenants.draining {
            return Err(TenantError::Draining);
        }
        if tenants.map.len() >= self.config.max_tenants {
            return Err(TenantError::Limit);
        }
        let state = Arc::new(self.create(name)?);
        tenants.map.insert(name.to_string(), Arc::clone(&state));
        Ok(state)
    }

    /// Look up an existing tenant without creating it — the read-only
    /// path for `Stats` probes, which must not consume tenant slots or
    /// allocate services/WALs for names that were never served.
    pub fn lookup(&self, name: &str) -> Result<Option<Arc<TenantState>>, TenantError> {
        if !valid_name(name) {
            return Err(TenantError::BadName(name.to_string()));
        }
        Ok(self.tenants.read().map.get(name).map(Arc::clone))
    }

    /// Flip the registry into draining and return every tenant that
    /// exists at that instant. Taking the write lock orders this
    /// against racing creations: any tenant created before the latch
    /// flips is in the returned list, anything after is refused with
    /// [`TenantError::Draining`] — so drain can never miss a gate.
    pub fn close(&self) -> Vec<Arc<TenantState>> {
        let mut tenants = self.tenants.write();
        tenants.draining = true;
        tenants.map.values().map(Arc::clone).collect()
    }

    /// Every live tenant (for drain reports and tests).
    pub fn list(&self) -> Vec<Arc<TenantState>> {
        self.tenants.read().map.values().map(Arc::clone).collect()
    }

    /// Build one tenant: a private service over a clone of the base
    /// catalog (cheap `Arc` clones; ingest publishes new epochs into
    /// this clone only), seeded per tenant name for reproducible yet
    /// distinct sampling streams, with WAL-backed persistence when the
    /// server has a data dir. Called with the registry write lock held
    /// — see the module docs for why that is deliberate.
    fn create(&self, name: &str) -> Result<TenantState, TenantError> {
        let cfg = &self.config;
        let service = LaqyService::with_config(
            self.base_catalog.clone(),
            SessionConfig {
                threads: cfg.threads,
                seed: cfg.seed ^ name_seed(name),
                ..Default::default()
            },
        );
        let dirs = match &cfg.data_dir {
            None => None,
            Some(root) => {
                let snap = root.join(name).join("snap");
                let wal = root.join(name).join("wal");
                std::fs::create_dir_all(&snap)
                    .and_then(|()| std::fs::create_dir_all(&wal))
                    .map_err(|e| TenantError::Persist(e.to_string()))?;
                // An empty snapshot directory recovers to an empty store and
                // an empty log replays nothing, so a fresh tenant opens
                // through the same call as a restarted one.
                // laqy-lint: allow(guard-blocking-op) -- tenant creation is exclusive by design: the registry write guard must cover WAL recovery so a racing connection cannot open a second appender on this tenant's log.
                service
                    .recover_with_wal(&snap, &wal)
                    .map_err(|e| TenantError::Persist(e.to_string()))?;
                Some((snap, wal))
            }
        };
        Ok(TenantState {
            name: name.to_string(),
            service,
            gate: Gate::new(cfg.tenant_permits, cfg.tenant_queue),
            default_budget: QueryBudget::with_deadline(cfg.default_allowance),
            counters: TenantCounters::default(),
            dirs,
        })
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Stable per-name seed perturbation (FNV-1a over the name bytes).
fn name_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The admission wait budget is part of the tenant contract: waiting
/// longer than the default allowance could never produce a useful
/// answer, so the queue wait is capped at the smaller of the configured
/// admission wait and the tenant's own allowance.
pub fn queue_wait_cap(config: &ServerConfig) -> Duration {
    config.admission_max_wait.min(config.default_allowance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> Arc<ServerConfig> {
        Arc::new(ServerConfig {
            max_tenants: 2,
            ..ServerConfig::default()
        })
    }

    fn tiny_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            laqy_engine::Table::new(
                "t",
                vec![
                    ("key".into(), laqy_engine::Column::Int64((0..50).collect())),
                    (
                        "v".into(),
                        laqy_engine::Column::Int64((0..50).map(|i| i % 5).collect()),
                    ),
                ],
            )
            .expect("table builds"),
        );
        cat
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("tenant-0_A"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("dot./.dot"));
        assert!(!valid_name(&"x".repeat(MAX_TENANT_NAME + 1)));
    }

    #[test]
    fn creation_is_lazy_capped_and_cached() {
        let reg = TenantRegistry::new(tiny_catalog(), test_config());
        let a = reg.get_or_create("a").expect("created");
        let a2 = reg.get_or_create("a").expect("cached");
        assert!(Arc::ptr_eq(&a, &a2), "second lookup returns the same state");
        reg.get_or_create("b").expect("second tenant fits");
        assert!(
            matches!(reg.get_or_create("c"), Err(TenantError::Limit)),
            "third tenant is over the cap"
        );
        assert!(matches!(
            reg.get_or_create("../evil"),
            Err(TenantError::BadName(_))
        ));
        assert_eq!(reg.list().len(), 2);
    }

    #[test]
    fn lookup_never_creates() {
        let reg = TenantRegistry::new(tiny_catalog(), test_config());
        assert!(reg.lookup("ghost").expect("valid name").is_none());
        assert_eq!(reg.list().len(), 0, "lookup must not allocate a tenant");
        assert!(matches!(
            reg.lookup("../evil"),
            Err(TenantError::BadName(_))
        ));
        let a = reg.get_or_create("a").expect("a");
        let found = reg.lookup("a").expect("valid name").expect("exists");
        assert!(Arc::ptr_eq(&a, &found));
    }

    #[test]
    fn close_stops_creation_but_existing_tenants_resolve() {
        let reg = TenantRegistry::new(tiny_catalog(), test_config());
        let a = reg.get_or_create("a").expect("a");
        let closed = reg.close();
        assert_eq!(closed.len(), 1, "close returns the drain list");
        assert!(
            matches!(reg.get_or_create("b"), Err(TenantError::Draining)),
            "new tenants are refused after close"
        );
        let a2 = reg
            .get_or_create("a")
            .expect("existing tenants still resolve");
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    fn tenant_ingest_does_not_leak_into_other_tenants() {
        let reg = TenantRegistry::new(tiny_catalog(), test_config());
        let a = reg.get_or_create("a").expect("a");
        let b = reg.get_or_create("b").expect("b");
        let batch = vec![
            ("key".to_string(), laqy_engine::Column::Int64(vec![50, 51])),
            ("v".to_string(), laqy_engine::Column::Int64(vec![1, 2])),
        ];
        let watermark = a.service.ingest("t", batch).expect("ingest applies");
        assert_eq!(watermark, 52);
        // Tenant b (and the shared base rows) are untouched.
        assert_eq!(b.service.catalog().table("t").expect("t").num_rows(), 50);
        assert_eq!(a.service.catalog().table("t").expect("t").num_rows(), 52);
    }
}

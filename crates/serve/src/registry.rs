//! Hot lake catalogs behind per-lake `RwLock`s.
//!
//! The daemon scans every served lake once at startup and then keeps each
//! [`LakeCatalog`] hot in memory. Requests take a read lock — many
//! concurrent discovers share one catalog snapshot — and revalidate it
//! against the filesystem fingerprints before use: a stale hit (or an
//! explicit `scan` verb) rescans the lake and swaps the result in. The
//! rescan runs outside the lock, so other requests keep reading the old
//! snapshot meanwhile and wait only for the swap; rescans of one lake run
//! one at a time. Catalog swaps preserve the lake's
//! [`LoadCounters`](metam_lake::catalog::LoadCounters) handles, so the
//! server-lifetime hit/miss totals in `status` survive refreshes.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use metam_lake::LakeCatalog;

use crate::protocol::{ErrorKind, ServeError};

#[derive(Debug)]
struct LakeSlot {
    name: String,
    catalog: RwLock<Arc<LakeCatalog>>,
    /// Held for the length of a rescan, so one lake's rescans never race
    /// each other's record writes or swaps.
    rescan: Mutex<()>,
}

/// The daemon's set of served lakes, each hot behind its own `RwLock`.
#[derive(Debug)]
pub struct LakeRegistry {
    lakes: Vec<LakeSlot>,
}

impl LakeRegistry {
    /// Scan each `(name, directory)` pair into a hot catalog. Names must
    /// be unique; scans run sequentially at startup (the per-scan
    /// profiling inside each is already parallel).
    pub fn open(lakes: &[(String, PathBuf)]) -> Result<LakeRegistry, ServeError> {
        if lakes.is_empty() {
            return Err(ServeError::bad_request("serve needs at least one lake"));
        }
        let mut slots: Vec<LakeSlot> = Vec::with_capacity(lakes.len());
        for (name, dir) in lakes {
            if slots.iter().any(|s| s.name == *name) {
                return Err(ServeError::bad_request(format!(
                    "two lakes share the name {name:?}; pass distinct directories"
                )));
            }
            let catalog = LakeCatalog::scan(dir).map_err(|e| {
                ServeError::internal(format!("scanning lake {name:?} at {}: {e}", dir.display()))
            })?;
            slots.push(LakeSlot {
                name: name.clone(),
                catalog: RwLock::new(Arc::new(catalog)),
                rescan: Mutex::new(()),
            });
        }
        Ok(LakeRegistry { lakes: slots })
    }

    /// Served lake names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.lakes.iter().map(|s| s.name.clone()).collect()
    }

    fn slot(&self, name: &str) -> Result<&LakeSlot, ServeError> {
        self.lakes.iter().find(|s| s.name == name).ok_or_else(|| {
            ServeError::new(
                ErrorKind::UnknownLake,
                format!(
                    "unknown lake {name:?} (serving: {})",
                    self.names().join(", ")
                ),
            )
        })
    }

    /// The current catalog snapshot for `name`, revalidated against the
    /// filesystem: a fresh catalog returns under the read lock; a stale
    /// one is rescanned and swapped in first, so the returned snapshot
    /// always reflects the lake as it is on disk.
    pub fn hot(&self, name: &str) -> Result<Arc<LakeCatalog>, ServeError> {
        let slot = self.slot(name)?;
        let current = Self::current(slot);
        if !current.is_stale() {
            return Ok(current);
        }
        self.rescan_slot(slot, false)
    }

    /// The current catalog snapshot without revalidation (for `status`
    /// rendering, which must stay cheap and never trigger rescans).
    pub fn snapshot(&self, name: &str) -> Result<Arc<LakeCatalog>, ServeError> {
        Ok(Self::current(self.slot(name)?))
    }

    /// Unconditionally rescan lake `name` (the `scan` verb), swap the
    /// result in and return it. A rescan of an unchanged lake still reads
    /// every sketch record, so it heals a record that rotted on disk, and
    /// its hit/miss counts are this scan's own.
    pub fn refresh(&self, name: &str) -> Result<Arc<LakeCatalog>, ServeError> {
        self.rescan_slot(self.slot(name)?, true)
    }

    fn current(slot: &LakeSlot) -> Arc<LakeCatalog> {
        Arc::clone(&slot.catalog.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Rescan `slot` outside its catalog lock and swap the result in.
    /// Without `force`, a catalog that another request refreshed while
    /// this one waited for the rescan lock is returned as it is.
    fn rescan_slot(&self, slot: &LakeSlot, force: bool) -> Result<Arc<LakeCatalog>, ServeError> {
        let _rescanning = slot.rescan.lock().unwrap_or_else(PoisonError::into_inner);
        let current = Self::current(slot);
        if !force && !current.is_stale() {
            return Ok(current);
        }
        let fresh =
            Arc::new(current.rescan().map_err(|e| {
                ServeError::internal(format!("rescanning lake {:?}: {e}", slot.name))
            })?);
        *slot.catalog.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&fresh);
        Ok(fresh)
    }
}

/// Derive a lake name from its directory path (the final path component),
/// the CLI convention for `metam serve <dir>...`.
pub fn lake_name_for(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| dir.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_lake(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("metam-serve-reg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.csv"), "x,y\n1,2\n3,4\n").unwrap();
        dir
    }

    #[test]
    fn unknown_and_duplicate_lakes_are_typed_errors() {
        let dir = tmp_lake("dup");
        let reg = LakeRegistry::open(&[("demo".into(), dir.clone())]).unwrap();
        assert_eq!(reg.hot("nope").unwrap_err().kind, ErrorKind::UnknownLake);
        let dup = LakeRegistry::open(&[("d".into(), dir.clone()), ("d".into(), dir.clone())]);
        assert_eq!(dup.unwrap_err().kind, ErrorKind::BadRequest);
        assert_eq!(
            LakeRegistry::open(&[]).unwrap_err().kind,
            ErrorKind::BadRequest
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_hit_swaps_in_a_rescan() {
        let dir = tmp_lake("stale");
        let reg = LakeRegistry::open(&[("demo".into(), dir.clone())]).unwrap();
        let first = reg.hot("demo").unwrap();
        assert_eq!(first.len(), 1);
        fs::write(dir.join("b.csv"), "z\n7\n").unwrap();
        let second = reg.hot("demo").unwrap();
        assert_eq!(second.len(), 2, "stale hit revalidated to the new file");
        assert!(
            !Arc::ptr_eq(&first, &second),
            "the slot holds a refreshed catalog"
        );
        assert_eq!(reg.snapshot("demo").unwrap().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}

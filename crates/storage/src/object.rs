//! A content-addressed object store with refcounted deduplication.
//!
//! Large immutable blobs (avatar meshes, scene textures, video segments)
//! are stored by content hash; identical payloads stored under different
//! names share one copy. E13 uses the dedup accounting to reproduce the
//! shared-representation claim of §IV-I.

use bytes::Bytes;
use mv_common::hash::{fx_hash_one, FastMap};
use mv_common::Space;
use mv_common::{MvError, MvResult};

/// Object metadata.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-pub): returned by `ObjectStore::put`, which other crates call
pub struct ObjectMeta {
    /// Content fingerprint.
    pub content_hash: u64,
    /// Payload size in bytes.
    pub size: u64,
    /// Which space produced the object.
    pub space: Space,
}

#[derive(Debug)]
struct Blob {
    data: Bytes,
    refcount: u64,
}

/// The store: names → content hashes → blobs.
#[derive(Debug, Default)]
pub struct ObjectStore {
    names: FastMap<String, ObjectMeta>,
    blobs: FastMap<u64, Blob>,
}

impl ObjectStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `data` under `name` (overwrites any previous object of that
    /// name). Returns the object's metadata.
    pub fn put(&mut self, name: &str, data: Bytes, space: Space) -> ObjectMeta {
        let content_hash = fx_hash_one(&data.as_ref());
        // Drop the old referent if the name existed.
        if let Some(old) = self.names.remove(name) {
            self.release(old.content_hash);
        }
        let size = data.len() as u64;
        match self.blobs.get_mut(&content_hash) {
            Some(blob) => blob.refcount += 1,
            None => {
                self.blobs.insert(content_hash, Blob { data, refcount: 1 });
            }
        }
        let meta = ObjectMeta { content_hash, size, space };
        self.names.insert(name.to_string(), meta.clone());
        meta
    }

    /// Fetch an object by name.
    pub fn get(&self, name: &str) -> MvResult<Bytes> {
        let meta = self
            .names
            .get(name)
            .ok_or_else(|| MvError::InvalidArgument(format!("unknown object {name}")))?;
        Ok(self.blobs[&meta.content_hash].data.clone())
    }

    /// Delete a name; the blob is reclaimed when the last name drops.
    pub fn delete(&mut self, name: &str) -> bool {
        match self.names.remove(name) {
            Some(meta) => {
                self.release(meta.content_hash);
                true
            }
            None => false,
        }
    }

    fn release(&mut self, content_hash: u64) {
        if let Some(blob) = self.blobs.get_mut(&content_hash) {
            blob.refcount -= 1;
            if blob.refcount == 0 {
                self.blobs.remove(&content_hash);
            }
        }
    }

    /// Number of named objects.
    pub fn object_count(&self) -> usize {
        self.names.len()
    }

    /// Logical bytes (sum over names) vs physical bytes (sum over unique
    /// blobs) — the dedup accounting pair.
    pub fn bytes(&self) -> (u64, u64) {
        let logical = self.names.values().map(|m| m.size).sum();
        let physical = self.blobs.values().map(|b| b.data.len() as u64).sum();
        (logical, physical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut s = ObjectStore::new();
        s.put("mesh/1", Bytes::from_static(b"triangles"), Space::Virtual);
        assert_eq!(s.get("mesh/1").unwrap(), Bytes::from_static(b"triangles"));
        assert!(s.get("mesh/2").is_err());
        assert_eq!(s.names["mesh/1"].space, Space::Virtual);
    }

    #[test]
    fn identical_content_is_shared() {
        let mut s = ObjectStore::new();
        let payload = Bytes::from(vec![7u8; 1000]);
        for i in 0..10 {
            s.put(&format!("avatar/{i}"), payload.clone(), Space::Virtual);
        }
        let (logical, physical) = s.bytes();
        assert_eq!(logical, 10_000);
        assert_eq!(physical, 1_000);
    }

    #[test]
    fn blob_reclaimed_when_last_name_drops() {
        let mut s = ObjectStore::new();
        let payload = Bytes::from_static(b"shared");
        s.put("a", payload.clone(), Space::Physical);
        s.put("b", payload, Space::Physical);
        assert!(s.delete("a"));
        assert_eq!(s.get("b").unwrap(), Bytes::from_static(b"shared"));
        assert!(s.delete("b"));
        assert!(!s.delete("b"));
        let (logical, physical) = s.bytes();
        assert_eq!((logical, physical), (0, 0));
    }

    #[test]
    fn overwrite_releases_old_content() {
        let mut s = ObjectStore::new();
        s.put("x", Bytes::from_static(b"old-content"), Space::Virtual);
        s.put("x", Bytes::from_static(b"new-content"), Space::Virtual);
        assert_eq!(s.object_count(), 1);
        let (_, physical) = s.bytes();
        assert_eq!(physical, 11); // only the new blob remains
        assert_eq!(s.get("x").unwrap(), Bytes::from_static(b"new-content"));
    }
}

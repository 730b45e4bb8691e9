//! Engine choice: MIH for small radii, brute force for large ones.
//!
//! * **MIH** needs bands of a few bits each — at radius `r` it builds
//!   `r + 1` bands over 64 bits, so large radii produce 1–2-bit bands
//!   whose buckets hold most of the corpus, and every probe rescans it.
//! * **Brute force** is O(n) per query regardless of the data — slower
//!   on friendly workloads, but immune to hostile ones, and it answers
//!   any radius.
//!
//! [`FallbackIndex::plan`] decides from the radius alone. Exact
//! duplicates never reach an engine in production: the cluster and
//! serve builds index [`crate::HashGroups::unique`], and the
//! association index holds one medoid per annotated cluster.

use crate::{BruteForceIndex, HammingIndex, MihIndex, QueryScratch};
use meme_phash::PHash;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The engine a [`FallbackIndex`] settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndexEngine {
    /// Multi-index hashing (the preferred engine).
    Mih,
    /// Parallel linear scan (large radii; never rejects).
    BruteForce,
}

impl IndexEngine {
    /// Human-readable engine name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Mih => "multi-index hashing",
            Self::BruteForce => "brute force",
        }
    }

    /// Stable machine-readable identifier (metric names, JSON keys).
    pub fn slug(self) -> &'static str {
        match self {
            Self::Mih => "mih",
            Self::BruteForce => "brute_force",
        }
    }
}

impl fmt::Display for IndexEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an engine declined a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// The query radius exceeds what the engine can prune effectively.
    RadiusTooLarge {
        /// The engine that declined.
        engine: IndexEngine,
        /// Requested radius.
        radius: u32,
        /// Largest radius the engine accepts.
        limit: u32,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RadiusTooLarge {
                engine,
                radius,
                limit,
            } => write!(
                f,
                "{engine} rejects radius {radius} (accepts up to {limit})"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// Largest radius MIH accepts: beyond it, bands shrink under 4 bits
/// (`64 / (radius + 1) < 4`) and bucket selectivity vanishes.
const MIH_MAX_RADIUS: u32 = 15;

/// A radius-query index that always builds: MIH when the radius fits
/// its envelope, else brute force.
#[derive(Debug, Clone)]
pub struct FallbackIndex {
    backend: Backend,
    rejection: Option<IndexError>,
}

#[derive(Debug, Clone)]
enum Backend {
    Mih(MihIndex),
    Brute(BruteForceIndex),
}

impl FallbackIndex {
    /// The engine that would take radius-`radius` queries, and why MIH
    /// declined if it did. Builds nothing, so callers that want to time
    /// or label the build (e.g. a metrics span named after the engine)
    /// can plan first, then call [`FallbackIndex::build`].
    pub fn plan(radius: u32) -> (IndexEngine, Option<IndexError>) {
        if radius <= MIH_MAX_RADIUS {
            return (IndexEngine::Mih, None);
        }
        let rejection = IndexError::RadiusTooLarge {
            engine: IndexEngine::Mih,
            radius,
            limit: MIH_MAX_RADIUS,
        };
        (IndexEngine::BruteForce, Some(rejection))
    }

    /// Build an index for radius-`radius` queries over `hashes` with
    /// the engine [`FallbackIndex::plan`] picks.
    pub fn build(hashes: Vec<PHash>, radius: u32) -> Self {
        let (engine, rejection) = Self::plan(radius);
        let backend = match engine {
            // lint:allow(panic-reachable): plan() selects MIH only for radius < 64 and in-u32 gallery sizes, so new()'s contract holds
            IndexEngine::Mih => Backend::Mih(MihIndex::new(hashes, radius)),
            IndexEngine::BruteForce => Backend::Brute(BruteForceIndex::new(hashes)),
        };
        Self { backend, rejection }
    }

    /// The engine that accepted the workload.
    pub fn engine(&self) -> IndexEngine {
        match self.backend {
            Backend::Mih(_) => IndexEngine::Mih,
            Backend::Brute(_) => IndexEngine::BruteForce,
        }
    }

    /// Why MIH declined (empty when MIH took the workload).
    pub fn rejections(&self) -> &[IndexError] {
        self.rejection.as_slice()
    }
}

impl HammingIndex for FallbackIndex {
    fn len(&self) -> usize {
        match &self.backend {
            Backend::Mih(i) => i.len(),
            Backend::Brute(i) => i.len(),
        }
    }

    fn hash_at(&self, i: usize) -> PHash {
        match &self.backend {
            Backend::Mih(x) => x.hash_at(i),
            Backend::Brute(x) => x.hash_at(i),
        }
    }

    fn radius_query(&self, query: PHash, radius: u32) -> Vec<usize> {
        match &self.backend {
            Backend::Mih(x) => x.radius_query(query, radius),
            Backend::Brute(x) => x.radius_query(query, radius),
        }
    }

    // lint:hotpath(per-query radius lookup; dispatch must stay allocation-free)
    fn radius_query_into(
        &self,
        query: PHash,
        radius: u32,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        match &self.backend {
            Backend::Mih(x) => x.radius_query_into(query, radius, scratch, out),
            Backend::Brute(x) => x.radius_query_into(query, radius, scratch, out),
        }
    }

    fn radius_query_from(
        &self,
        query: PHash,
        radius: u32,
        start: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<usize>,
    ) {
        match &self.backend {
            Backend::Mih(x) => x.radius_query_from(query, radius, start, scratch, out),
            Backend::Brute(x) => x.radius_query_from(query, radius, start, scratch, out),
        }
    }

    fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Mih(x) => x.memory_bytes(),
            Backend::Brute(x) => x.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distinct_hashes(n: usize) -> Vec<PHash> {
        // Spread bits so pairwise distances are non-trivial.
        (0..n)
            .map(|i| PHash((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }

    #[test]
    fn clean_small_radius_uses_mih() {
        let idx = FallbackIndex::build(distinct_hashes(100), 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
        assert!(idx.rejections().is_empty());
    }

    #[test]
    fn radius_past_mih_limit_falls_to_brute() {
        let idx = FallbackIndex::build(distinct_hashes(100), MIH_MAX_RADIUS);
        assert_eq!(idx.engine(), IndexEngine::Mih);

        let idx = FallbackIndex::build(distinct_hashes(100), 16);
        assert_eq!(idx.engine(), IndexEngine::BruteForce);
        assert_eq!(
            idx.rejections(),
            [IndexError::RadiusTooLarge {
                engine: IndexEngine::Mih,
                radius: 16,
                limit: MIH_MAX_RADIUS,
            }]
        );
    }

    #[test]
    fn duplicate_dominated_workload_stays_on_mih() {
        let mut hashes = distinct_hashes(30);
        hashes.extend(std::iter::repeat_n(PHash(0xDEAD_BEEF), 70));
        let idx = FallbackIndex::build(hashes.clone(), 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
        assert!(idx.rejections().is_empty());
        let brute = BruteForceIndex::new(hashes.clone());
        for &q in &hashes {
            assert_eq!(idx.radius_query(q, 8), brute.radius_query(q, 8));
        }
    }

    #[test]
    fn fallback_answers_match_brute_force() {
        let mut hashes = distinct_hashes(50);
        hashes.extend(std::iter::repeat_n(PHash(42), 150));
        let brute = BruteForceIndex::new(hashes.clone());
        for radius in [0u32, 8, 20, 40, 64] {
            let idx = FallbackIndex::build(hashes.clone(), radius);
            for &q in hashes.iter().take(20) {
                assert_eq!(
                    idx.radius_query(q, radius),
                    brute.radius_query(q, radius),
                    "engine {:?} radius {radius}",
                    idx.engine()
                );
            }
        }
    }

    #[test]
    fn empty_corpus_builds() {
        let idx = FallbackIndex::build(Vec::new(), 8);
        assert_eq!(idx.engine(), IndexEngine::Mih);
        assert!(idx.is_empty());
        assert!(idx.radius_query(PHash(1), 8).is_empty());
    }
}

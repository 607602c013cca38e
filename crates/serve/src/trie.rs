//! The prefix-cache trie: encoded-once session snapshots keyed by token
//! prefix.
//!
//! A radix trie over token sequences where selected nodes carry a full
//! [`InferenceSession`] snapshot positioned exactly at that prefix. A
//! lookup for a prompt finds the deepest snapshotted ancestor and copies
//! it into a caller-provided session (`assign_from`, no allocation), so
//! only the prompt's unshared tail needs encoding. Because a forked
//! session replays the identical per-token arithmetic over identical
//! cached KV rows, a cache hit is *bit-identical* to encoding the prompt
//! from scratch — the determinism contract `docs/SERVING.md` spells out
//! and `tests/eval_parity.rs` enforces.
//!
//! Memory is bounded: each snapshot costs `ModelConfig::session_bytes()`
//! resident bytes and the trie evicts the least-recently-used unpinned
//! snapshot when inserting past its byte budget (pinned anchors — the
//! shared preamble of a batch in flight — survive until the batch
//! releases its pin). Structural nodes without snapshots are a few machine
//! words and are not counted.

use astro_model::{InferenceSession, ModelConfig};

/// How many resident session snapshots the default byte budget allows.
const DEFAULT_RESIDENT_SESSIONS: usize = 32;

/// Running counters for one cache's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a snapshotted ancestor (depth > 0).
    pub hits: u64,
    /// Lookups that had to start from position 0.
    pub misses: u64,
    /// Prompt tokens whose encoding was skipped thanks to a hit.
    pub tokens_reused: u64,
    /// Snapshots dropped by the LRU eviction policy.
    pub evictions: u64,
    /// Snapshots currently resident.
    pub resident_sessions: u64,
    /// Bytes currently resident (sessions × `session_bytes`).
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// One trie node. `edge` is the token slice on the edge from the parent;
/// `depth` is the total prefix length at this node.
struct Node {
    edge: Vec<u32>,
    depth: usize,
    children: Vec<usize>,
    session: Option<Box<InferenceSession>>,
    last_use: u64,
    /// Holders keeping this snapshot from eviction (see [`PrefixCache::pin`]).
    pins: u32,
}

/// The prefix cache: a radix trie of session snapshots with LRU eviction
/// under a resident-byte cap.
pub struct PrefixCache {
    nodes: Vec<Node>,
    clock: u64,
    session_bytes: usize,
    cap_bytes: usize,
    stats: CacheStats,
    /// `stats` as of the last [`PrefixCache::take_unpublished`].
    published: CacheStats,
}

impl PrefixCache {
    /// A cache for sessions of `cfg`. `cap_bytes = 0` derives the default
    /// budget (`DEFAULT_RESIDENT_SESSIONS` snapshots) from the
    /// configuration; any other value is used as-is, floored to one
    /// snapshot so a functioning cache can always hold its pinned anchor.
    pub fn new(cfg: &ModelConfig, cap_bytes: usize) -> Self {
        let session_bytes = cfg.session_bytes().max(1);
        let cap = if cap_bytes == 0 {
            session_bytes * DEFAULT_RESIDENT_SESSIONS
        } else {
            cap_bytes.max(session_bytes)
        };
        PrefixCache {
            nodes: vec![Node {
                edge: Vec::new(),
                depth: 0,
                children: Vec::new(),
                session: None,
                last_use: 0,
                pins: 0,
            }],
            clock: 0,
            session_bytes,
            cap_bytes: cap,
            stats: CacheStats::default(),
            published: CacheStats::default(),
        }
    }

    /// Resident bytes of one snapshot.
    pub fn session_bytes(&self) -> usize {
        self.session_bytes
    }

    /// How many snapshots the byte budget admits: with `max_active`, the
    /// bound on a serving process's sessions (see [`crate::scheduler`],
    /// *Memory*).
    pub fn capacity_sessions(&self) -> usize {
        self.cap_bytes / self.session_bytes
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// How far the counters have moved since the previous call (the
    /// `resident_*` fields are current values, not movement). Whichever
    /// driver ran the work publishes this to the metrics registry; the
    /// cache remembers what it has handed out, so activity is published
    /// once however many drivers share it.
    pub(crate) fn take_unpublished(&mut self) -> CacheStats {
        let was = std::mem::replace(&mut self.published, self.stats);
        CacheStats {
            hits: self.stats.hits - was.hits,
            misses: self.stats.misses - was.misses,
            tokens_reused: self.stats.tokens_reused - was.tokens_reused,
            evictions: self.stats.evictions - was.evictions,
            ..self.stats
        }
    }

    /// Walk as deep as the trie structure matches `tokens`, returning
    /// `(node, matched_len)`; the walk only stops at node boundaries.
    fn walk(&self, tokens: &[u32]) -> (usize, usize) {
        let mut node = 0usize;
        let mut matched = 0usize;
        'descend: loop {
            for &child in &self.nodes[node].children {
                let edge = &self.nodes[child].edge;
                let rest = &tokens[matched..];
                if rest.len() >= edge.len() && rest[..edge.len()] == edge[..] {
                    node = child;
                    matched += edge.len();
                    continue 'descend;
                }
            }
            return (node, matched);
        }
    }

    /// Copy the deepest snapshot that prefixes `tokens` into `dst` and
    /// return its depth (0 = miss: `dst` is reset to position 0). Counts
    /// a hit/miss and bumps the snapshot's LRU stamp.
    pub fn fork_into(&mut self, dst: &mut InferenceSession, tokens: &[u32]) -> usize {
        // Walk down, remembering the deepest snapshotted node passed
        // (parent links are implicit — nodes are only reachable downward).
        let mut best: Option<usize> = None;
        let mut node = 0usize;
        let mut matched = 0usize;
        'descend: loop {
            if self.nodes[node].session.is_some() {
                best = Some(node);
            }
            for &child in &self.nodes[node].children {
                let edge = &self.nodes[child].edge;
                let rest = &tokens[matched..];
                if rest.len() >= edge.len() && rest[..edge.len()] == edge[..] {
                    node = child;
                    matched += edge.len();
                    continue 'descend;
                }
            }
            break;
        }
        match best {
            Some(n) if self.nodes[n].depth > 0 => {
                self.clock += 1;
                self.nodes[n].last_use = self.clock;
                let depth = self.nodes[n].depth;
                if let Some(sess) = &self.nodes[n].session {
                    dst.assign_from(sess);
                }
                self.stats.hits += 1;
                self.stats.tokens_reused += depth as u64;
                depth
            }
            _ => {
                dst.reset();
                self.stats.misses += 1;
                0
            }
        }
    }

    /// The node carrying a snapshot at exactly this prefix, if any.
    fn snapshot_at(&self, tokens: &[u32]) -> Option<usize> {
        let (node, matched) = self.walk(tokens);
        (matched == tokens.len() && self.nodes[node].session.is_some()).then_some(node)
    }

    /// True when a snapshot exists at exactly this prefix (cheap check so
    /// workers can skip the clone a no-op insert would cost).
    pub fn has_snapshot(&self, tokens: &[u32]) -> bool {
        self.snapshot_at(tokens).is_some()
    }

    /// Take one more hold on the snapshot at exactly this prefix, keeping
    /// it from eviction until the matching [`PrefixCache::unpin`]. Holds
    /// count, so concurrent batches sharing a preamble each keep it alive.
    /// Returns `false` (holding nothing) when no snapshot exists there.
    pub(crate) fn pin(&mut self, tokens: &[u32]) -> bool {
        let node = self.snapshot_at(tokens);
        if let Some(n) = node {
            self.nodes[n].pins += 1;
        }
        node.is_some()
    }

    /// Release one hold taken by [`PrefixCache::pin`] (or by a pinned
    /// [`PrefixCache::insert`]). The snapshot stays resident and
    /// forkable; with no holds left it is evictable again.
    pub(crate) fn unpin(&mut self, tokens: &[u32]) {
        if let Some(n) = self.snapshot_at(tokens) {
            self.nodes[n].pins = self.nodes[n].pins.saturating_sub(1);
        }
    }

    /// Insert a snapshot of `sess` at exactly the prefix `tokens`,
    /// splitting edges as needed. `sess.position()` must equal
    /// `tokens.len()`. `pinned` inserts it with one hold already taken
    /// (see [`PrefixCache::pin`]). Returns `false` without touching the
    /// trie when a snapshot already exists there, or when the byte budget
    /// cannot admit it (everything resident is pinned) and `pinned` is
    /// off.
    pub fn insert(&mut self, tokens: &[u32], sess: &InferenceSession, pinned: bool) -> bool {
        self.insert_with(tokens, sess.position(), pinned, || Box::new(sess.clone()))
    }

    /// [`PrefixCache::insert`] of a snapshot the caller already took: the
    /// trie keeps `sess` itself instead of cloning it.
    pub(crate) fn insert_owned(&mut self, tokens: &[u32], sess: Box<InferenceSession>) -> bool {
        self.insert_with(tokens, sess.position(), false, || sess)
    }

    /// The one insert: `snapshot` runs only once the trie will keep it.
    fn insert_with(
        &mut self,
        tokens: &[u32],
        position: usize,
        pinned: bool,
        snapshot: impl FnOnce() -> Box<InferenceSession>,
    ) -> bool {
        assert!(
            position == tokens.len(),
            "snapshot position {position} != prefix length {}",
            tokens.len()
        );
        if tokens.is_empty() {
            return false; // the root never carries a snapshot
        }
        // Make room first; a failed reservation leaves the trie unchanged.
        while self.stats.resident_bytes + self.session_bytes as u64 > self.cap_bytes as u64 {
            if !self.evict_lru() {
                if !pinned {
                    return false;
                }
                break; // pinned anchors may exceed the budget
            }
        }
        let node = self.node_at(tokens);
        if self.nodes[node].session.is_some() {
            return false;
        }
        self.clock += 1;
        self.nodes[node].last_use = self.clock;
        self.nodes[node].pins = pinned as u32;
        self.nodes[node].session = Some(snapshot());
        self.stats.resident_sessions += 1;
        self.stats.resident_bytes += self.session_bytes as u64;
        true
    }

    /// Find or create the node whose prefix is exactly `tokens`.
    fn node_at(&mut self, tokens: &[u32]) -> usize {
        let mut node = 0usize;
        let mut matched = 0usize;
        'outer: while matched < tokens.len() {
            let rest = &tokens[matched..];
            let child_ids: Vec<usize> = self.nodes[node].children.clone();
            for child in child_ids {
                let edge = &self.nodes[child].edge;
                let common = edge
                    .iter()
                    .zip(rest.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                if common == 0 {
                    continue;
                }
                if common == edge.len() {
                    // Full edge match: descend.
                    node = child;
                    matched += common;
                    continue 'outer;
                }
                // Partial match: split the edge at `common`.
                let mid = self.split_edge(node, child, common);
                node = mid;
                matched += common;
                continue 'outer;
            }
            // No child shares a first token: create a leaf for the rest.
            let depth = self.nodes[node].depth + rest.len();
            let leaf = self.push_node(Node {
                edge: rest.to_vec(),
                depth,
                children: Vec::new(),
                session: None,
                last_use: 0,
                pins: 0,
            });
            self.nodes[node].children.push(leaf);
            return leaf;
        }
        node
    }

    /// Split `child`'s edge after `common` tokens, interposing a new node
    /// between `parent` and `child`. Returns the new middle node.
    fn split_edge(&mut self, parent: usize, child: usize, common: usize) -> usize {
        let head: Vec<u32> = self.nodes[child].edge[..common].to_vec();
        let tail: Vec<u32> = self.nodes[child].edge[common..].to_vec();
        let mid_depth = self.nodes[parent].depth + common;
        let mid = self.push_node(Node {
            edge: head,
            depth: mid_depth,
            children: vec![child],
            session: None,
            last_use: 0,
            pins: 0,
        });
        self.nodes[child].edge = tail;
        if let Some(slot) = self.nodes[parent]
            .children
            .iter_mut()
            .find(|c| **c == child)
        {
            *slot = mid;
        }
        mid
    }

    fn push_node(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Drop the least-recently-used unpinned snapshot. Returns `false`
    /// when nothing is evictable.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.session.is_some() && n.pins == 0)
            .min_by_key(|(_, n)| n.last_use)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                self.nodes[i].session = None;
                self.stats.evictions += 1;
                self.stats.resident_sessions -= 1;
                self.stats.resident_bytes -= self.session_bytes as u64;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astro_model::{ModelConfig, Params};
    use astro_prng::Rng;

    fn setup() -> (ModelConfig, Params) {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(1));
        (cfg, p)
    }

    fn encoded(cfg: ModelConfig, p: &Params, tokens: &[u32]) -> InferenceSession {
        let mut s = InferenceSession::new(cfg);
        for &t in tokens {
            s.feed(p, t);
        }
        s
    }

    #[test]
    fn miss_then_hit_reuses_prefix() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, 0);
        let prefix = [3u32, 1, 4];
        let mut dst = InferenceSession::new(cfg);
        assert_eq!(cache.fork_into(&mut dst, &[3, 1, 4, 1, 5]), 0);
        cache.insert(&prefix, &encoded(cfg, &p, &prefix), true);
        let got = cache.fork_into(&mut dst, &[3, 1, 4, 1, 5]);
        assert_eq!(got, 3);
        assert_eq!(dst.position(), 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.tokens_reused), (1, 1, 3));
    }

    #[test]
    fn deepest_snapshot_wins() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, 0);
        cache.insert(&[3, 1], &encoded(cfg, &p, &[3, 1]), false);
        cache.insert(&[3, 1, 4, 1], &encoded(cfg, &p, &[3, 1, 4, 1]), false);
        let mut dst = InferenceSession::new(cfg);
        assert_eq!(cache.fork_into(&mut dst, &[3, 1, 4, 1, 5, 9]), 4);
        // A shorter prompt only reaches the shallow snapshot.
        assert_eq!(cache.fork_into(&mut dst, &[3, 1, 7]), 2);
    }

    #[test]
    fn edge_splitting_preserves_depths() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, 0);
        cache.insert(&[5, 6, 7, 8], &encoded(cfg, &p, &[5, 6, 7, 8]), false);
        // Diverges after [5, 6]: forces a split.
        cache.insert(&[5, 6, 9], &encoded(cfg, &p, &[5, 6, 9]), false);
        assert!(cache.has_snapshot(&[5, 6, 7, 8]));
        assert!(cache.has_snapshot(&[5, 6, 9]));
        assert!(!cache.has_snapshot(&[5, 6]));
        let mut dst = InferenceSession::new(cfg);
        assert_eq!(cache.fork_into(&mut dst, &[5, 6, 9, 1]), 3);
        assert_eq!(cache.fork_into(&mut dst, &[5, 6, 7, 8, 1]), 4);
    }

    #[test]
    fn insert_is_idempotent() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, 0);
        let sess = encoded(cfg, &p, &[1, 2]);
        assert!(cache.insert(&[1, 2], &sess, false));
        assert!(!cache.insert(&[1, 2], &sess, false));
        assert_eq!(cache.stats().resident_sessions, 1);
    }

    #[test]
    fn lru_eviction_under_byte_cap() {
        let (cfg, p) = setup();
        // Budget for exactly two snapshots.
        let mut cache = PrefixCache::new(&cfg, cfg.session_bytes() * 2);
        cache.insert(&[1], &encoded(cfg, &p, &[1]), false);
        cache.insert(&[2], &encoded(cfg, &p, &[2]), false);
        // Touch [1] so [2] becomes the LRU victim.
        let mut dst = InferenceSession::new(cfg);
        cache.fork_into(&mut dst, &[1, 9]);
        cache.insert(&[3], &encoded(cfg, &p, &[3]), false);
        assert!(cache.has_snapshot(&[1]));
        assert!(!cache.has_snapshot(&[2]));
        assert!(cache.has_snapshot(&[3]));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident_sessions, 2);
    }

    #[test]
    fn pinned_anchor_survives_eviction_pressure() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, cfg.session_bytes());
        cache.insert(&[7], &encoded(cfg, &p, &[7]), true);
        // Budget is one snapshot and it is pinned: the insert must refuse.
        assert!(!cache.insert(&[8], &encoded(cfg, &p, &[8]), false));
        assert!(cache.has_snapshot(&[7]));
        assert!(!cache.has_snapshot(&[8]));
    }

    #[test]
    fn pins_count_and_release() {
        let (cfg, p) = setup();
        let mut cache = PrefixCache::new(&cfg, cfg.session_bytes());
        assert!(!cache.pin(&[7]), "nothing to pin yet");
        cache.insert(&[7], &encoded(cfg, &p, &[7]), false);
        // Two holders: the snapshot survives until both have let go.
        assert!(cache.pin(&[7]));
        assert!(cache.pin(&[7]));
        cache.unpin(&[7]);
        assert!(!cache.insert(&[8], &encoded(cfg, &p, &[8]), false));
        cache.unpin(&[7]);
        assert!(cache.insert(&[8], &encoded(cfg, &p, &[8]), false));
        assert!(!cache.has_snapshot(&[7]));
        // A pinned insert carries one hold of its own.
        assert!(cache.insert(&[9], &encoded(cfg, &p, &[9]), true));
        assert!(!cache.insert(&[7], &encoded(cfg, &p, &[7]), false));
        cache.unpin(&[9]);
        assert!(cache.insert(&[7], &encoded(cfg, &p, &[7]), false));
    }

    #[test]
    fn zero_cap_derives_default_budget() {
        let cfg = ModelConfig::tiny(24);
        let cache = PrefixCache::new(&cfg, 0);
        assert_eq!(cache.cap_bytes, cfg.session_bytes() * DEFAULT_RESIDENT_SESSIONS);
        assert!(cache.session_bytes() > 0);
    }

    #[test]
    fn budget_is_precision_aware() {
        // Quantization changes what a resident snapshot costs (the int8
        // session carries extra i8 activation scratch on top of the f32
        // KV rows), and the cache's budget math must charge the
        // precision-specific size — both the per-snapshot charge and the
        // derived default budget.
        let f32_cfg = ModelConfig::tiny(24);
        let int8_cfg = f32_cfg.with_precision(astro_model::WeightPrecision::Int8);
        assert!(int8_cfg.session_bytes() > f32_cfg.session_bytes());
        let f32_cache = PrefixCache::new(&f32_cfg, 0);
        let int8_cache = PrefixCache::new(&int8_cfg, 0);
        assert_eq!(f32_cache.session_bytes(), f32_cfg.session_bytes());
        assert_eq!(int8_cache.session_bytes(), int8_cfg.session_bytes());
        // Same explicit byte budget: the int8 cache admits no more
        // snapshots than the f32 one (its snapshots are bigger), and
        // `capacity_sessions` reflects that.
        let budget = f32_cfg.session_bytes() * 4;
        let a = PrefixCache::new(&f32_cfg, budget);
        let b = PrefixCache::new(&int8_cfg, budget);
        assert_eq!(a.capacity_sessions(), 4);
        assert!(b.capacity_sessions() <= a.capacity_sessions());
    }

    #[test]
    fn hit_rate_counts() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}

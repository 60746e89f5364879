#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qfr/cache/canonical.hpp"
#include "qfr/common/io.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/engine/fragment_engine.hpp"

namespace qfr::cache {

/// Configuration of the content-addressed fragment-result cache.
struct CacheOptions {
  bool enabled = false;
  /// Canonicalization grid spacing (bohr). Coarser tolerances merge more
  /// near-identical geometries (higher hit rate, larger mapping error);
  /// keys made at different tolerances never alias.
  double tolerance = 1e-4;
  /// In-memory byte budget across all shards; least-recently-used entries
  /// are evicted past it. Evicted entries remain in the persistent store.
  std::size_t max_bytes = 256ull << 20;
  /// Lock striping: concurrent requests for different keys contend only
  /// within a shard.
  std::size_t n_shards = 16;
  /// Append-only on-disk store (empty = in-memory only). Loaded on
  /// construction, appended to on every accepted insert; the file is a
  /// common::record_log with one CRC-framed [key][result] body per entry,
  /// so a bit flip at rest loses exactly one entry.
  ///
  /// The store is multi-process safe: appends are whole-frame writes on
  /// an O_APPEND descriptor serialized by an exclusive flock on
  /// `store_path + ".lock"`, misses read foreign appends back in
  /// (refresh()), and compaction merges before rewriting — several
  /// processes (e.g. forked leader processes) can share one store as a
  /// read-through layer without losing or tearing records. A process
  /// that forks must call reopen_after_fork() in the child.
  std::string store_path;
};

/// Point-in-time cache counters (also exported as qfr.cache.* metrics).
struct CacheStats {
  std::int64_t hits = 0;            ///< lookups served from memory
  std::int64_t misses = 0;          ///< lookups that had to compute
  std::int64_t inflight_waits = 0;  ///< requests that blocked on a leader
  std::int64_t evictions = 0;       ///< entries dropped by the byte budget
  std::int64_t insert_rejects = 0;  ///< results refused (non-finite/filter)
  std::int64_t store_loaded = 0;    ///< entries restored from disk
  std::int64_t store_corrupt = 0;   ///< damaged on-disk records skipped
  std::int64_t store_skipped = 0;   ///< on-disk records at a foreign tolerance
  std::size_t entries = 0;          ///< live in-memory entries
  std::size_t bytes = 0;            ///< live in-memory payload bytes

  double hit_rate() const {
    const std::int64_t n = hits + misses;
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

/// A near-miss cache entry matched atom-by-atom against a query geometry:
/// same namespace, same element sequence, every matched atom within the
/// caller's radius. Everything is expressed in the *query's* canonical slot
/// order, so the caller can treat the cached result as an exact result for
/// the returned old geometry and build a perturbative refresh on top.
struct NearHit {
  /// Cached canonical-frame result, atoms re-indexed to query slots.
  engine::FragmentResult canonical;
  /// Cached atom positions (bohr, canonical frame of the *query*'s grid),
  /// indexed by query slot — the geometry `canonical` is exact for.
  std::vector<geom::Vec3> old_canonical_pos;
  /// Largest per-atom displacement between query and cached geometry
  /// (bohr) — the distortion the perturbative refresh must absorb.
  double max_displacement = 0.0;
};

/// Sharded, byte-budgeted, content-addressed store of canonical-frame
/// FragmentResults with single-flight deduplication and an optional
/// persistent backing file.
///
/// Results are stored in the canonical frame of their key, so one entry
/// serves every rigid-motion/permutation image of the geometry: a hit is
/// mapped back through the *query's* canonicalization (to_lab_frame). A
/// miss computes on the ORIGINAL lab geometry — the first compute of any
/// geometry is bitwise identical to an uncached run — and stores the
/// canonical-rotated copy.
///
/// Single flight: N concurrent get_or_compute calls for the same key cost
/// one compute. The first request becomes the leader; the rest block on a
/// per-key latch (polling the ambient CancelToken, so revoked leases never
/// hang here) and are served from the leader's publication. A failed or
/// rejected leader wakes the waiters empty-handed and they retry — one
/// fragment's injected fault never poisons another fragment's request.
///
/// Thread safety: all public methods are safe to call concurrently.
class ResultCache {
 public:
  using ComputeFn = std::function<engine::FragmentResult()>;
  /// Gate on inserts (result validation); return false to refuse caching.
  /// A refused result is still returned to its own caller.
  using InsertFilter = std::function<bool(const engine::FragmentResult&)>;

  explicit ResultCache(CacheOptions opts);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cache's one hot-path entry point: serve `mol` under engine
  /// namespace `ns` from cache, or run `compute` (single-flight) and
  /// remember it. The returned result is in the caller's lab frame with
  /// `cache_hit` set accordingly.
  engine::FragmentResult get_or_compute(std::string_view ns,
                                        const chem::Molecule& mol,
                                        const ComputeFn& compute);

  /// Probe without computing; counts a hit or miss.
  std::optional<engine::FragmentResult> lookup(std::string_view ns,
                                               const chem::Molecule& mol);

  /// Exact probe against an already-computed canonicalization (the tiered
  /// trajectory path canonicalizes once and reuses it across tiers).
  /// Returns the canonical-frame entry; counts neither hit nor miss — the
  /// caller owns tier accounting.
  std::optional<engine::FragmentResult> probe(const Canonicalization& c);

  /// Near-hit distance query beside the exact lookup: scan for a cached
  /// entry with the same namespace and element sequence whose atoms all
  /// lie within `radius_bohr` of the query's (greedily matched) atoms in
  /// the canonical frame. Returns the closest such entry, or nullopt.
  /// Greedy matching can overestimate the true displacement — that
  /// direction is safe (a spurious full recompute, never a wrong refresh).
  /// Counts neither hit nor miss.
  std::optional<NearHit> find_near(const Canonicalization& c,
                                   double radius_bohr);

  /// Canonicalize and insert a lab-frame result. Returns false when the
  /// result is refused (non-finite values or insert filter).
  bool insert(std::string_view ns, const chem::Molecule& mol,
              const engine::FragmentResult& lab);

  /// Install the insert gate (e.g. fault::FragmentResultValidator). Not
  /// thread safe against in-flight computes: install before the sweep.
  void set_insert_filter(InsertFilter filter) { filter_ = std::move(filter); }

  /// Rewrite the persistent store to exactly the live in-memory entries
  /// (atomic tmp+rename), dropping evicted, duplicate, foreign-tolerance
  /// and corrupt records. Holds the exclusive store lock and merges
  /// records appended by other processes first, so concurrent writers
  /// never lose entries. No-op without a store_path.
  void compact();

  /// Pull in records appended to the store by other processes since the
  /// last scan (cross-process read-through). Cheap when nothing changed
  /// (one stat); called automatically on lookup misses. Returns the
  /// number of entries added to memory.
  std::size_t refresh();

  /// Re-open the store and lock descriptors in a freshly forked child.
  /// flock locks attach to the open file description, which fork()
  /// shares with the parent — without this call the child and the
  /// master would hold (and release!) each other's store lock.
  void reopen_after_fork();

  CacheStats stats() const;
  const CacheOptions& options() const { return opts_; }

 private:
  struct InFlight;
  struct Shard;

  Shard& shard_for(const FragmentKey& key) const;
  engine::FragmentResult compute_as_leader(Shard& shard,
                                           const Canonicalization& c,
                                           const std::shared_ptr<InFlight>& fl,
                                           const ComputeFn& compute);
  /// Insert under an already-held shard lock; returns false if refused.
  bool insert_locked(Shard& shard, const FragmentKey& key,
                     std::shared_ptr<const engine::FragmentResult> canonical);
  void evict_locked(Shard& shard);
  void load_store();
  void append_to_store(const FragmentKey& key,
                       const engine::FragmentResult& canonical);
  void write_store_file(const std::string& path);
  /// Open (or re-open) the append and lock descriptors. store_mutex_ held.
  void open_store_fds_locked();
  /// Re-open the append fd when another process compacted (renamed over)
  /// the store, and write the header if the file is empty. Exclusive
  /// store lock + store_mutex_ held.
  void ensure_store_current_locked();
  /// Scan the store from scan_offset_, inserting unseen records. Store
  /// lock (shared or exclusive) + store_mutex_ held. `strict_header`
  /// throws on a bad header (construction) instead of treating it as
  /// damage. Returns true when damaged/foreign records were seen.
  bool scan_store_locked(bool strict_header);
  void bump(const char* metric, std::int64_t n = 1) const;
  /// Per-namespace breakdown beside the aggregate counter:
  /// `<metric>{ns=<ns>}` — makes exact-hit vs refresh-tier reuse
  /// attributable per engine level in run reports.
  void bump_ns(const char* metric, std::string_view ns,
               std::int64_t n = 1) const;
  void publish_bytes_gauge() const;

  CacheOptions opts_;
  InsertFilter filter_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> inflight_waits_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> insert_rejects_{0};
  std::atomic<std::int64_t> store_loaded_{0};
  std::atomic<std::int64_t> store_corrupt_{0};
  std::atomic<std::int64_t> store_skipped_{0};

  // Persistent store state. Lock order: store_mutex_ (in-process) before
  // the flock on lock_fd_ (cross-process) before shard mutexes.
  std::mutex store_mutex_;
  common::FdGuard store_fd_;  ///< O_APPEND writer; open iff store_path set
  common::FdGuard lock_fd_;   ///< flock target: store_path + ".lock"
  std::uint64_t scan_offset_ = 0;  ///< store bytes already read into memory
  std::uint64_t scan_dev_ = 0;     ///< inode identity of the scanned file,
  std::uint64_t scan_ino_ = 0;     ///< to detect foreign compaction
};

/// True when every numeric field of the result is finite — the always-on
/// poisoning gate in front of the insert filter.
bool result_is_finite(const engine::FragmentResult& r);

/// Approximate in-memory footprint of a result (byte-budget accounting).
std::size_t result_bytes(const engine::FragmentResult& r);

}  // namespace qfr::cache

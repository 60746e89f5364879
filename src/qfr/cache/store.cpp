#include "qfr/cache/store.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "qfr/common/cancel.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/record_log.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"

namespace qfr::cache {

namespace {

// Version 2: one record-log body per entry, [key][result record].
constexpr common::LogFormat kStoreFormat{0x43524651u /* "QFRC" */, 2,
                                         "result-cache store"};

/// Scoped flock on the store's lockfile. The lockfile (not the store
/// itself) is the flock target because compaction replaces the store via
/// rename — a lock on the old inode would no longer exclude anyone.
struct FileLockGuard {
  int fd;
  FileLockGuard(int f, common::FileLockMode mode) : fd(f) {
    QFR_ASSERT(common::lock_file(fd, mode),
               "cache store flock failed: " << std::strerror(errno));
  }
  ~FileLockGuard() { common::unlock_file(fd); }
  FileLockGuard(const FileLockGuard&) = delete;
  FileLockGuard& operator=(const FileLockGuard&) = delete;
};

bool all_finite(const la::Matrix& m) {
  const double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

/// Append one store frame: a CRC-framed [key][result record] body.
void put_entry_frame(common::ByteWriter& w, const FragmentKey& key,
                     const engine::FragmentResult& canonical) {
  common::put_frame(w, [&](common::ByteWriter& body) {
    write_key(body, key);
    frag::write_result_record(body, canonical);
  });
}

}  // namespace

bool result_is_finite(const engine::FragmentResult& r) {
  return std::isfinite(r.energy) && all_finite(r.hessian) &&
         all_finite(r.alpha) && all_finite(r.dalpha) && all_finite(r.dmu);
}

std::size_t result_bytes(const engine::FragmentResult& r) {
  return sizeof(engine::FragmentResult) +
         (r.hessian.size() + r.alpha.size() + r.dalpha.size() +
          r.dmu.size()) *
             sizeof(double);
}

// ---------------------------------------------------------------------------

/// Per-key latch for single-flight deduplication. Waiters hold a
/// shared_ptr, so the latch outlives its shard-map entry.
struct ResultCache::InFlight {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;  ///< leader threw, or its result was refused
  std::shared_ptr<const engine::FragmentResult> canonical;
};

struct ResultCache::Shard {
  struct Entry {
    FragmentKey key;
    std::shared_ptr<const engine::FragmentResult> value;
    std::size_t bytes = 0;
  };

  std::mutex m;
  std::list<Entry> lru;  ///< front = most recently used
  std::unordered_map<FragmentKey, std::list<Entry>::iterator, FragmentKeyHash>
      map;
  std::unordered_map<FragmentKey, std::shared_ptr<InFlight>, FragmentKeyHash>
      inflight;
  std::size_t bytes = 0;
  std::size_t budget = 0;
};

ResultCache::ResultCache(CacheOptions opts) : opts_(std::move(opts)) {
  QFR_REQUIRE(opts_.tolerance > 0.0, "cache tolerance must be > 0");
  if (opts_.n_shards == 0) opts_.n_shards = 1;
  shards_.reserve(opts_.n_shards);
  const std::size_t budget =
      std::max<std::size_t>(1, opts_.max_bytes / opts_.n_shards);
  for (std::size_t i = 0; i < opts_.n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->budget = budget;
  }
  if (!opts_.store_path.empty()) load_store();
}

ResultCache::~ResultCache() = default;

ResultCache::Shard& ResultCache::shard_for(const FragmentKey& key) const {
  return *shards_[static_cast<std::size_t>(key.h0) % shards_.size()];
}

void ResultCache::bump(const char* metric, std::int64_t n) const {
  if (obs::Session* s = obs::current()) s->metrics().counter(metric).add(n);
}

void ResultCache::bump_ns(const char* metric, std::string_view ns,
                          std::int64_t n) const {
  if (ns.empty()) return;
  if (obs::Session* s = obs::current()) {
    std::string labeled;
    labeled.reserve(std::strlen(metric) + ns.size() + 5);
    labeled.append(metric).append("{ns=").append(ns).append("}");
    s->metrics().counter(labeled).add(n);
  }
}

void ResultCache::publish_bytes_gauge() const {
  if (obs::Session* s = obs::current()) {
    std::size_t total = 0;
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh->m);
      total += sh->bytes;
    }
    s->metrics().gauge("qfr.cache.bytes").set(static_cast<double>(total));
  }
}

engine::FragmentResult ResultCache::get_or_compute(std::string_view ns,
                                                   const chem::Molecule& mol,
                                                   const ComputeFn& compute) {
  const Canonicalization c = canonicalize(mol, opts_.tolerance, ns);
  Shard& shard = shard_for(c.key);
  const common::CancelToken cancel = common::current_cancel_token();

  bool counted_wait = false;
  // Cross-process read-through: before committing to a compute, pull in
  // any records other processes appended to the shared store. One stat()
  // when nothing changed; skipped entirely for in-memory caches.
  bool tried_refresh = opts_.store_path.empty();
  for (;;) {
    std::shared_ptr<const engine::FragmentResult> value;
    std::shared_ptr<InFlight> fl;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lk(shard.m);
      auto it = shard.map.find(c.key);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        value = it->second->value;
      } else if (tried_refresh) {
        auto fit = shard.inflight.find(c.key);
        if (fit == shard.inflight.end()) {
          fl = std::make_shared<InFlight>();
          shard.inflight.emplace(c.key, fl);
          leader = true;
        } else {
          fl = fit->second;
        }
      }
    }
    if (!value && !tried_refresh) {
      tried_refresh = true;
      refresh();
      continue;  // retry the lookup against the refreshed map
    }

    if (value) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      bump("qfr.cache.hits");
      bump_ns("qfr.cache.hits", c.key.ns);
      obs::SpanGuard span(obs::current(), "cache.hit", "cache");
      span.arg("atoms", static_cast<double>(c.key.n_atoms()));
      engine::FragmentResult out = to_lab_frame(*value, c);
      out.cache_hit = true;
      out.reuse_tier = engine::ReuseTier::kExact;
      return out;
    }

    if (leader) return compute_as_leader(shard, c, fl, compute);

    // Someone else is computing this key: wait for their publication.
    // Short timed waits keep the waiter responsive to cooperative
    // cancellation (a revoked lease must not hang on a foreign compute).
    if (!counted_wait) {
      counted_wait = true;
      inflight_waits_.fetch_add(1, std::memory_order_relaxed);
      bump("qfr.cache.inflight_waits");
    }
    bool ok = false;
    {
      std::unique_lock<std::mutex> lk(fl->m);
      while (!fl->done) {
        cancel.throw_if_cancelled();
        fl->cv.wait_for(lk, std::chrono::milliseconds(1));
      }
      if (!fl->failed && fl->canonical) {
        value = fl->canonical;
        ok = true;
      }
    }
    if (ok) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      bump("qfr.cache.hits");
      bump_ns("qfr.cache.hits", c.key.ns);
      obs::SpanGuard span(obs::current(), "cache.hit", "cache");
      span.arg("atoms", static_cast<double>(c.key.n_atoms()));
      engine::FragmentResult out = to_lab_frame(*value, c);
      out.cache_hit = true;
      out.reuse_tier = engine::ReuseTier::kExact;
      return out;
    }
    // Leader failed (threw, or its result was refused): retry from the
    // top — this request may find a value inserted meanwhile or become
    // the new leader and compute for itself.
  }
}

engine::FragmentResult ResultCache::compute_as_leader(
    Shard& shard, const Canonicalization& c,
    const std::shared_ptr<InFlight>& fl, const ComputeFn& compute) {
  engine::FragmentResult lab;
  bool accepted = false;
  std::shared_ptr<const engine::FragmentResult> canonical;
  try {
    // Compute on the ORIGINAL lab geometry: the first compute of any
    // geometry is bitwise identical to an uncached run, and engines with
    // topology fast paths see the unmodified atom order.
    lab = compute();
    if (result_is_finite(lab) && (!filter_ || filter_(lab))) {
      canonical = std::make_shared<const engine::FragmentResult>(
          to_canonical_frame(lab, c));
      std::lock_guard<std::mutex> lk(shard.m);
      accepted = insert_locked(shard, c.key, canonical);
    } else {
      insert_rejects_.fetch_add(1, std::memory_order_relaxed);
      bump("qfr.cache.insert_rejects");
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(shard.m);
      shard.inflight.erase(c.key);
    }
    {
      std::lock_guard<std::mutex> lk(fl->m);
      fl->done = true;
      fl->failed = true;
    }
    fl->cv.notify_all();
    throw;
  }

  if (accepted) append_to_store(c.key, *canonical);

  {
    std::lock_guard<std::mutex> lk(shard.m);
    shard.inflight.erase(c.key);
  }
  {
    std::lock_guard<std::mutex> lk(fl->m);
    fl->done = true;
    fl->failed = !accepted;
    if (accepted) fl->canonical = canonical;
  }
  fl->cv.notify_all();

  misses_.fetch_add(1, std::memory_order_relaxed);
  bump("qfr.cache.misses");
  bump_ns("qfr.cache.misses", c.key.ns);
  publish_bytes_gauge();
  lab.cache_hit = false;
  lab.reuse_tier = engine::ReuseTier::kComputed;
  return lab;
}

std::optional<engine::FragmentResult> ResultCache::lookup(
    std::string_view ns, const chem::Molecule& mol) {
  const Canonicalization c = canonicalize(mol, opts_.tolerance, ns);
  Shard& shard = shard_for(c.key);
  std::shared_ptr<const engine::FragmentResult> value;
  for (int attempt = 0; attempt < 2 && !value; ++attempt) {
    {
      std::lock_guard<std::mutex> lk(shard.m);
      auto it = shard.map.find(c.key);
      if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        value = it->second->value;
      }
    }
    // Miss: pull foreign appends once, then re-probe.
    if (!value && attempt == 0 &&
        (opts_.store_path.empty() || refresh() == 0))
      break;
  }
  if (!value) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.cache.misses");
    bump_ns("qfr.cache.misses", c.key.ns);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bump("qfr.cache.hits");
  bump_ns("qfr.cache.hits", c.key.ns);
  engine::FragmentResult out = to_lab_frame(*value, c);
  out.cache_hit = true;
  out.reuse_tier = engine::ReuseTier::kExact;
  return out;
}

std::optional<engine::FragmentResult> ResultCache::probe(
    const Canonicalization& c) {
  QFR_REQUIRE(c.key.tolerance == opts_.tolerance,
              "cache probe with a foreign-tolerance canonicalization");
  Shard& shard = shard_for(c.key);
  std::lock_guard<std::mutex> lk(shard.m);
  auto it = shard.map.find(c.key);
  if (it == shard.map.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return *it->second->value;
}

std::optional<NearHit> ResultCache::find_near(const Canonicalization& c,
                                              double radius_bohr) {
  if (radius_bohr <= 0.0) return std::nullopt;
  const FragmentKey& qk = c.key;
  const std::size_t n = qk.n_atoms();
  // Greedy nearest matching of query slots onto cached slots, restricted
  // to equal elements. Keys are sorted by (z, coords), so equal-z runs
  // are contiguous and an equal element multiset means equal z vectors.
  std::optional<NearHit> best;
  std::vector<std::size_t> match(n);
  std::vector<char> used(n);
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    for (const auto& entry : sh->lru) {
      const FragmentKey& ek = entry.key;
      if (ek.z != qk.z || ek.ns != qk.ns || ek == qk) continue;
      std::fill(used.begin(), used.end(), 0);
      double worst2 = 0.0;
      bool matched = true;
      const double r2_cap =
          (radius_bohr / opts_.tolerance) * (radius_bohr / opts_.tolerance);
      for (std::size_t s = 0; s < n && matched; ++s) {
        // Candidates share the element: the contiguous run of ek slots
        // with z == qk.z[s].
        double best2 = 0.0;
        std::size_t best_slot = n;
        for (std::size_t t = 0; t < n; ++t) {
          if (used[t] || ek.z[t] != qk.z[s]) continue;
          double d2 = 0.0;
          for (int k = 0; k < 3; ++k) {
            const double d = static_cast<double>(qk.q[3 * s + k] -
                                                 ek.q[3 * t + k]);
            d2 += d * d;
          }
          if (best_slot == n || d2 < best2) {
            best2 = d2;
            best_slot = t;
          }
        }
        if (best_slot == n || best2 > r2_cap) {
          matched = false;
          break;
        }
        used[best_slot] = 1;
        match[s] = best_slot;
        worst2 = std::max(worst2, best2);
      }
      if (!matched) continue;
      const double max_disp = opts_.tolerance * std::sqrt(worst2);
      if (best && best->max_displacement <= max_disp) continue;
      NearHit hit;
      hit.canonical = permute_result(*entry.value, match);
      hit.old_canonical_pos.resize(n);
      for (std::size_t s = 0; s < n; ++s) {
        const std::size_t t = match[s];
        hit.old_canonical_pos[s] = geom::Vec3{
            opts_.tolerance * static_cast<double>(ek.q[3 * t + 0]),
            opts_.tolerance * static_cast<double>(ek.q[3 * t + 1]),
            opts_.tolerance * static_cast<double>(ek.q[3 * t + 2])};
      }
      hit.max_displacement = max_disp;
      best = std::move(hit);
    }
  }
  return best;
}

bool ResultCache::insert(std::string_view ns, const chem::Molecule& mol,
                         const engine::FragmentResult& lab) {
  if (!result_is_finite(lab) || (filter_ && !filter_(lab))) {
    insert_rejects_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.cache.insert_rejects");
    return false;
  }
  const Canonicalization c = canonicalize(mol, opts_.tolerance, ns);
  auto canonical = std::make_shared<const engine::FragmentResult>(
      to_canonical_frame(lab, c));
  Shard& shard = shard_for(c.key);
  bool accepted = false;
  {
    std::lock_guard<std::mutex> lk(shard.m);
    accepted = insert_locked(shard, c.key, canonical);
  }
  if (accepted) append_to_store(c.key, *canonical);
  publish_bytes_gauge();
  return accepted;
}

bool ResultCache::insert_locked(
    Shard& shard, const FragmentKey& key,
    std::shared_ptr<const engine::FragmentResult> canonical) {
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // First write wins: a concurrent leader already published this key.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return false;
  }
  const std::size_t cost = key.payload_bytes() + result_bytes(*canonical);
  shard.lru.push_front(Shard::Entry{key, std::move(canonical), cost});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += cost;
  evict_locked(shard);
  return true;
}

void ResultCache::evict_locked(Shard& shard) {
  // Keep at least one entry per shard: a single result larger than the
  // shard budget must still be cacheable, or a hot oversized fragment
  // would recompute forever.
  while (shard.bytes > shard.budget && shard.lru.size() > 1) {
    const Shard::Entry& tail = shard.lru.back();
    shard.bytes -= tail.bytes;
    shard.map.erase(tail.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    bump("qfr.cache.evictions");
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insert_rejects = insert_rejects_.load(std::memory_order_relaxed);
  s.store_loaded = store_loaded_;
  s.store_corrupt = store_corrupt_;
  s.store_skipped = store_skipped_;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->m);
    s.entries += sh->lru.size();
    s.bytes += sh->bytes;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Persistent store.

void ResultCache::open_store_fds_locked() {
  const std::string lock_path = opts_.store_path + ".lock";
  lock_fd_.reset(::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                        0644));
  QFR_REQUIRE(lock_fd_.valid(), "cannot open result-cache lockfile '"
                                    << lock_path << "': "
                                    << std::strerror(errno));
  store_fd_.reset(::open(opts_.store_path.c_str(),
                         O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644));
  QFR_REQUIRE(store_fd_.valid(), "cannot open result-cache store '"
                                     << opts_.store_path << "': "
                                     << std::strerror(errno));
}

void ResultCache::ensure_store_current_locked() {
  struct ::stat ps {};
  struct ::stat fs {};
  const bool have_path = ::stat(opts_.store_path.c_str(), &ps) == 0;
  const bool have_fd =
      store_fd_.valid() && ::fstat(store_fd_.get(), &fs) == 0;
  if (have_path && have_fd && ps.st_dev == fs.st_dev &&
      ps.st_ino == fs.st_ino) {
    if (fs.st_size != 0) return;
  } else {
    // Another process compacted (rename) or removed the store: the append
    // descriptor points at a dead inode. Re-open onto the live path.
    store_fd_.reset(::open(opts_.store_path.c_str(),
                           O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644));
    QFR_REQUIRE(store_fd_.valid(), "cannot re-open result-cache store '"
                                       << opts_.store_path << "': "
                                       << std::strerror(errno));
    if (::fstat(store_fd_.get(), &fs) != 0 || fs.st_size != 0) return;
  }
  // Empty file: stamp the header (exclusive lock held by the caller).
  common::ByteWriter header;
  common::put_log_header(header, kStoreFormat);
  QFR_REQUIRE(common::write_full(store_fd_.get(), header.view().data(),
                                 header.size()),
              "result-cache store header write failed");
}

bool ResultCache::scan_store_locked(bool strict_header) {
  struct ::stat st {};
  if (::stat(opts_.store_path.c_str(), &st) != 0) return false;
  if (scan_dev_ != static_cast<std::uint64_t>(st.st_dev) ||
      scan_ino_ != static_cast<std::uint64_t>(st.st_ino)) {
    // A different inode (first scan, or foreign compaction swapped the
    // file): everything on disk is unseen again. Re-reading records we
    // already hold is harmless — insert_locked is first-write-wins.
    scan_dev_ = static_cast<std::uint64_t>(st.st_dev);
    scan_ino_ = static_cast<std::uint64_t>(st.st_ino);
    scan_offset_ = 0;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < scan_offset_) scan_offset_ = 0;  // truncated under us
  if (size <= scan_offset_) return false;     // nothing new: one stat paid

  std::ifstream is(opts_.store_path, std::ios::binary);
  if (!is.good()) return false;
  // Every store counter is mirrored into the ambient session's registry,
  // so run reports show storage damage.
  const auto count = [this](std::atomic<std::int64_t>& total,
                            const char* metric) {
    total.fetch_add(1, std::memory_order_relaxed);
    bump(metric);
  };
  bool damaged = false;
  if (scan_offset_ < common::kLogHeaderBytes) {
    try {
      common::read_log_header(is, kStoreFormat);
    } catch (const InvalidArgument& e) {
      QFR_REQUIRE(!strict_header, "'" << opts_.store_path << "': " << e.what());
      count(store_corrupt_, "qfr.cache.store_corrupt");
      return true;
    }
    scan_offset_ = common::kLogHeaderBytes;
  }

  const common::LogScan scan = common::scan_frames(
      is, scan_offset_,
      [&](common::FrameStatus status, std::string_view body) {
        common::ByteReader in(body);
        FragmentKey key;
        engine::FragmentResult r;
        if (status != common::FrameStatus::kOk || !read_key(in, &key) ||
            !frag::read_result_record(in, &r)) {
          count(store_corrupt_, "qfr.cache.store_corrupt");
          damaged = true;  // framing intact, content damaged: skip one record
          return;
        }
        if (key.tolerance != opts_.tolerance) {
          count(store_skipped_, "qfr.cache.store_skipped");
          damaged = true;  // built at a foreign grid spacing
          return;
        }
        auto canonical =
            std::make_shared<const engine::FragmentResult>(std::move(r));
        Shard& shard = shard_for(key);
        bool inserted = false;
        {
          std::lock_guard<std::mutex> lk(shard.m);
          inserted = insert_locked(shard, key, std::move(canonical));
        }
        if (inserted) count(store_loaded_, "qfr.cache.store_loaded");
      });
  // A torn tail (the record in flight at a kill) or a corrupt length
  // field hides the next frame boundary: scan_offset_ stays before it.
  scan_offset_ = scan.end;
  if (scan.torn) {
    count(store_corrupt_, "qfr.cache.store_corrupt");
    damaged = true;
  }
  return damaged;
}

void ResultCache::load_store() {
  std::lock_guard<std::mutex> lk(store_mutex_);
  open_store_fds_locked();
  // Exclusive while loading: a damaged store is rewritten in place, and
  // two processes constructing against the same store serialize here.
  FileLockGuard fl(lock_fd_.get(), common::FileLockMode::kExclusive);
  ensure_store_current_locked();
  if (scan_store_locked(/*strict_header=*/true)) {
    // Drop the damaged/foreign records on disk so future appends land on
    // a clean frame boundary.
    write_store_file(opts_.store_path);
    ensure_store_current_locked();
    struct ::stat st {};
    if (::fstat(store_fd_.get(), &st) == 0) {
      scan_dev_ = static_cast<std::uint64_t>(st.st_dev);
      scan_ino_ = static_cast<std::uint64_t>(st.st_ino);
      scan_offset_ = static_cast<std::uint64_t>(st.st_size);
    }
  }
}

std::size_t ResultCache::refresh() {
  if (opts_.store_path.empty()) return 0;
  std::lock_guard<std::mutex> lk(store_mutex_);
  if (!lock_fd_.valid()) return 0;
  // Shared lock: appenders (exclusive) are fenced out, so every frame we
  // can see is complete; concurrent refreshes in other processes may run.
  FileLockGuard fl(lock_fd_.get(), common::FileLockMode::kShared);
  const std::int64_t before = store_loaded_.load(std::memory_order_relaxed);
  scan_store_locked(/*strict_header=*/false);
  return static_cast<std::size_t>(
      store_loaded_.load(std::memory_order_relaxed) - before);
}

void ResultCache::reopen_after_fork() {
  if (opts_.store_path.empty()) return;
  std::lock_guard<std::mutex> lk(store_mutex_);
  open_store_fds_locked();
}

void ResultCache::append_to_store(const FragmentKey& key,
                                  const engine::FragmentResult& canonical) {
  if (opts_.store_path.empty()) return;
  common::ByteWriter frame;
  put_entry_frame(frame, key, canonical);

  std::lock_guard<std::mutex> lk(store_mutex_);
  if (!store_fd_.valid()) return;
  // Exclusive across processes for the whole frame: with O_APPEND the
  // kernel lands the write at the true end of file, and the lock keeps
  // another process's frame from interleaving with ours — a reader under
  // the shared lock never sees a torn record.
  FileLockGuard fl(lock_fd_.get(), common::FileLockMode::kExclusive);
  ensure_store_current_locked();
  struct ::stat st {};
  const bool was_current =
      ::fstat(store_fd_.get(), &st) == 0 &&
      scan_offset_ == static_cast<std::uint64_t>(st.st_size) &&
      scan_dev_ == static_cast<std::uint64_t>(st.st_dev) &&
      scan_ino_ == static_cast<std::uint64_t>(st.st_ino);
  if (!common::write_full(store_fd_.get(), frame.view().data(),
                          frame.size())) {
    QFR_LOG_WARN("result-cache store append failed: ", std::strerror(errno));
    return;
  }
  // If we had read everything up to the old end, our own record needs no
  // re-reading; otherwise leave the offset alone and let the next
  // refresh() sweep over it (first-write-wins makes that a no-op).
  if (was_current) scan_offset_ += frame.size();
}

void ResultCache::write_store_file(const std::string& path) {
  // Write-then-rename: readers (and the next run) see either the old
  // complete store or the new complete store, never a torn one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    QFR_REQUIRE(os.good(), "cannot open '" << tmp << "' for writing");
    common::ByteWriter w;
    common::put_log_header(w, kStoreFormat);
    for (const auto& sh : shards_) {  // at least one: the header goes out
      std::lock_guard<std::mutex> lk(sh->m);
      // Oldest first, so a budget-limited reload keeps the recent end.
      for (auto it = sh->lru.rbegin(); it != sh->lru.rend(); ++it)
        put_entry_frame(w, it->key, *it->value);
      os.write(w.view().data(), static_cast<std::streamsize>(w.size()));
      w.clear();  // one shard buffered at a time
    }
    os.flush();
    QFR_REQUIRE(os.good(), "result-cache store write to '" << tmp
                                                           << "' failed");
  }
  QFR_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
              "cannot rename '" << tmp << "' to '" << path << "'");
}

void ResultCache::compact() {
  if (opts_.store_path.empty()) return;
  std::lock_guard<std::mutex> lk(store_mutex_);
  if (!lock_fd_.valid()) return;
  FileLockGuard fl(lock_fd_.get(), common::FileLockMode::kExclusive);
  ensure_store_current_locked();
  // Merge foreign appends into memory first — rewriting from memory alone
  // would silently drop records other processes added since our last scan.
  scan_store_locked(/*strict_header=*/false);
  write_store_file(opts_.store_path);
  // The rename replaced the inode: re-point the append descriptor and
  // mark the whole rewritten file as already-read.
  ensure_store_current_locked();
  struct ::stat st {};
  if (::fstat(store_fd_.get(), &st) == 0) {
    scan_dev_ = static_cast<std::uint64_t>(st.st_dev);
    scan_ino_ = static_cast<std::uint64_t>(st.st_ino);
    scan_offset_ = static_cast<std::uint64_t>(st.st_size);
  }
}

}  // namespace qfr::cache

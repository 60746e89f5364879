#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>

#include "qfr/common/cancel.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/engine/fallback_chain.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr {
class ThreadPool;
}  // namespace qfr

namespace qfr::cache {
class ResultCache;
}  // namespace qfr::cache

namespace qfr::obs {
class Session;
}  // namespace qfr::obs

namespace qfr::runtime {

struct RuntimeOptions;
struct RunReport;
class Supervisor;

/// Which execution substrate carries the leaders of a sweep.
enum class TransportKind {
  /// Leaders are threads of the master process pulling tasks directly
  /// from the shared scheduler (the original in-process hierarchy).
  kThread,
  /// Leaders are forked OS processes connected to the master by
  /// socketpairs and driven over the CRC32-framed wire protocol. A leader
  /// can genuinely die (kill -9) and the sweep recovers: the master
  /// detects the pipe EOF, revokes the leases, re-queues the fragments,
  /// and forks a fresh leader.
  kProcess,
};

const char* to_string(TransportKind kind);

/// The engines of one sweep as one ladder: level 0 is the primary
/// compute, levels 1.. the fallback chain (graceful degradation). With a
/// result cache every level is routed through it under that level's
/// engine name, so a cached fallback result is never served to a
/// primary-level request. Engines are called with the fragment's id and
/// explicit bond list: the classical model uses the topology, everything
/// else the id-tagged geometry call (so fault decorators can key on the
/// fragment id). Does not own the engines, the chain or the cache.
class EngineLadder {
 public:
  using Compute = std::function<engine::FragmentResult(const frag::Fragment&)>;

  EngineLadder(Compute primary, std::string primary_name,
               const engine::EngineFallbackChain* chain,
               cache::ResultCache* cache)
      : primary_(std::move(primary)),
        primary_name_(std::move(primary_name)),
        chain_(chain),
        cache_(cache) {}
  EngineLadder(const engine::FragmentEngine& primary,
               const engine::EngineFallbackChain* chain,
               cache::ResultCache* cache)
      : EngineLadder([&primary](const frag::Fragment& f) {
          return primary.compute(f.id, f.mol, f.bonds);
        }, primary.name(), chain, cache) {}

  std::size_t n_levels() const {
    return 1 + (chain_ != nullptr ? chain_->size() : 0);
  }
  std::string name(std::size_t level) const {
    return level == 0 ? primary_name_ : chain_->engine(level - 1).name();
  }
  engine::FragmentResult compute(const frag::Fragment& f,
                                 std::size_t level) const;

 private:
  Compute primary_;
  std::string primary_name_;
  const engine::EngineFallbackChain* chain_;
  cache::ResultCache* cache_;
};

/// Everything a transport needs to run the leader side of one sweep. The
/// scheduler, supervisor, report, and sink plumbing all live in the
/// master; the transport only decides WHERE the fragment computes execute
/// (leader threads vs forked leader processes) and ferries work and
/// results between them and the scheduler. MasterRuntime builds one of
/// these per run() and hands it to the configured transport; the serving
/// layer builds one per request.
struct SweepDrive {
  const RuntimeOptions& options;
  std::span<const frag::Fragment> fragments;
  SweepScheduler& scheduler;
  /// Constructed (but not started) when supervision is enabled, else
  /// null. The transport starts it with its own respawn callback and
  /// stops it once the sweep is finished.
  Supervisor* supervisor = nullptr;
  obs::Session* obs = nullptr;
  /// The sweep clock ("now" for acquire/tick and the supervisor).
  const WallTimer* wall = nullptr;
  const EngineLadder* ladder = nullptr;
  RunReport* report = nullptr;
  std::mutex* sink_mutex = nullptr;
  std::atomic<std::size_t>* n_cancelled = nullptr;
  /// Leader deaths detected and recovered by the transport itself without
  /// a supervisor (process mode handles pipe EOF locally when
  /// unsupervised). Supervised crashes are counted by the supervisor, so
  /// the two never double-count.
  std::atomic<std::size_t>* n_transport_crashes = nullptr;
};

/// One leader execution substrate. run() blocks until the sweep is
/// finished (every fragment terminal) and all leader slots have been
/// joined/reaped; it is responsible for starting and stopping the
/// supervisor (when drive.supervisor is set) so respawn stays
/// transport-owned.
class LeaderTransport {
 public:
  virtual ~LeaderTransport() = default;
  virtual const char* name() const = 0;
  virtual void run(SweepDrive& drive) = 0;
};

std::unique_ptr<LeaderTransport> make_leader_transport(TransportKind kind);

/// How one fragment attempt ended: kNone with the result and its wall
/// seconds, kCancelled, or the failure reason with its message.
struct Attempt {
  FailureReason reason = FailureReason::kNone;
  std::string error;
  engine::FragmentResult result;
  double seconds = 0.0;
};

/// Run one fragment compute with `token` as the ambient cancel token, time
/// it, and classify how it ended: a CancelledError (or a token that fired
/// before the start) is kCancelled, a TimeoutError kTimeout, a
/// NumericalError kNonConvergence, and any other throw kEngineError with
/// what() or "unknown error". Every leader (thread, forked process, serve
/// pool slot) classifies its attempts here.
Attempt run_attempt(const common::CancelToken& token,
                    const std::function<engine::FragmentResult()>& compute);

/// The leader step: compute a leased task's fragments on `pool` (the
/// caller plus its helpers), each at its current engine level under its
/// attempt token linked with the run's cancel token; then, in lease order,
/// deliver accepted results (deliver_result), report failures to the
/// scheduler, count cancels, and release each attempt from the
/// supervisor. `tokens` holds one attempt token per lease, or is empty
/// when nothing but the run can cancel an attempt. A fragment's failure
/// never escapes as an exception.
void execute_leased(SweepDrive& drive, std::size_t leader,
                    const LeasedTask& task,
                    std::span<const common::CancelToken> tokens,
                    ThreadPool& pool);

namespace detail {

/// Deliver one completed fragment result through the scheduler's epoch
/// gate and, when accepted, into the report and the sink. Shared by both
/// transports so acceptance side effects (metrics, fragment_seconds,
/// sink serialization) cannot drift apart. Returns true when accepted.
bool deliver_result(SweepDrive& drive, const Lease& lease, std::size_t level,
                    engine::FragmentResult&& result, double seconds);

}  // namespace detail

}  // namespace qfr::runtime

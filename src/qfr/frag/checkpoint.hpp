#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "qfr/engine/fragment_engine.hpp"
#include "qfr/runtime/result_sink.hpp"

namespace qfr::frag {

/// Binary checkpointing of per-fragment results.
///
/// The fragment sweep dominates a QF-RAMAN run (at the paper's scale it is
/// hours on a full supercomputer), so production runs must be resumable:
/// results are streamed to disk as they complete and a restarted run only
/// recomputes what is missing. The checkpoint (version 5) is a
/// common::record_log: one CRC-framed [fragment id][result record] body
/// per completed fragment, appended and flushed as the sweep completes
/// it. A run killed mid-write loses at most the trailing record; a bit
/// flip at rest — in the id or in the result — corrupts exactly one
/// record, which scan_checkpoint skips, reports, and never attributes to
/// another fragment.

/// The single-record serialization shared by the checkpoint, the
/// qfr::cache persistent store and the leader wire protocol: energy, the
/// four tensors, flop/task counters, and a completion sentinel.
/// read_result_record returns false on a truncated or sentinel-less
/// stream without throwing, so framed readers can treat a bad payload as
/// one skippable record.
void write_result_record(std::ostream& os, const engine::FragmentResult& r);
bool read_result_record(std::istream& is, engine::FragmentResult* r);

/// Incremental checkpoint writer: records are appended and flushed one at
/// a time as fragments complete. Not thread safe — the runtime serializes
/// sink calls.
class CheckpointWriter {
 public:
  /// Truncates `path` and writes a fresh header.
  explicit CheckpointWriter(const std::string& path);
  CheckpointWriter(std::ostream& os);  ///< stream variant (tests)

  /// Append one completed fragment's result and flush.
  void append(std::size_t fragment_id, const engine::FragmentResult& result);

  std::size_t n_written() const { return n_; }

 private:
  std::ofstream file_;
  std::ostream* os_ = nullptr;
  std::size_t n_ = 0;
};

/// Result of scanning an incremental checkpoint: parallel arrays of
/// fragment id and result, in append order (ids may repeat only if the
/// writer was misused; last record wins on resume). Corrupt records are
/// skipped — the resume recomputes exactly those fragments — and counted
/// here so the workflow can log what the checkpoint lost.
struct CheckpointReport {
  std::vector<std::size_t> fragment_ids;
  std::vector<engine::FragmentResult> results;
  bool truncated = false;    ///< a partial trailing record was dropped
  std::size_t n_corrupt = 0; ///< CRC-mismatched/unparseable records skipped
  /// Fragment ids of skipped records, best effort: read from the damaged
  /// body, so trustworthy only when the damage missed the id itself.
  std::vector<std::size_t> corrupt_ids;
};
/// Throws InvalidArgument on a foreign file or another format version.
CheckpointReport scan_checkpoint(std::istream& is);
CheckpointReport scan_checkpoint_file(const std::string& path);

/// ResultSink adapter streaming every accepted fragment completion into
/// an incremental checkpoint — this is what makes a RamanWorkflow sweep
/// resumable.
class CheckpointSink final : public runtime::ResultSink {
 public:
  explicit CheckpointSink(const std::string& path) : writer_(path) {}

  void on_result(std::size_t fragment_id,
                 const engine::FragmentResult& result) override {
    writer_.append(fragment_id, result);
  }

  CheckpointWriter& writer() { return writer_; }

 private:
  CheckpointWriter writer_;
};

}  // namespace qfr::frag

#include "qfr/fault/corrupting_sink.hpp"

#include <filesystem>
#include <fstream>

#include "qfr/common/error.hpp"
#include "qfr/common/record_log.hpp"

namespace qfr::fault {

namespace {

using common::kFramePrefixBytes;
using common::kFrameSuffixBytes;
// A checkpoint body opens with the fragment id. Damage goes past it, into
// the result record, so the lost record stays attributable (corrupt_ids).
constexpr std::uint64_t kIdBytes = sizeof(std::uint64_t);

}  // namespace

CorruptingCheckpointSink::CorruptingCheckpointSink(const std::string& path,
                                                   FaultInjector& injector)
    : path_(path), writer_(path), injector_(&injector) {}

void CorruptingCheckpointSink::on_result(std::size_t fragment_id,
                                         const engine::FragmentResult& result) {
  if (dead_) return;  // truncated "mid-write crash": nothing lands after

  const std::uint64_t start = std::filesystem::file_size(path_);
  writer_.append(fragment_id, result);
  const std::uint64_t end = std::filesystem::file_size(path_);
  QFR_ASSERT(end >= start + kFramePrefixBytes + kIdBytes + kFrameSuffixBytes,
             "checkpoint frame shorter than its own framing");
  const std::uint64_t record_start = start + kFramePrefixBytes + kIdBytes;
  const std::uint64_t record_len = end - record_start - kFrameSuffixBytes;

  const Fault fault = injector_->draw(fragment_id, FaultSite::kCheckpoint);
  switch (fault.kind) {
    case FaultKind::kBitFlip: {
      if (record_len == 0) break;
      // Deterministic single-bit flip inside the result record (never the
      // length field, so the scanner's skip-and-report path is exercised).
      const std::uint64_t offset =
          record_start + injector_->mix(fragment_id, 1) % record_len;
      const int bit = static_cast<int>(injector_->mix(fragment_id, 2) % 8);
      std::fstream f(path_,
                     std::ios::in | std::ios::out | std::ios::binary);
      QFR_REQUIRE(f.good(), "cannot reopen '" << path_ << "' to corrupt it");
      f.seekg(static_cast<std::streamoff>(offset));
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ (1 << bit));
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&byte, 1);
      f.flush();
      QFR_REQUIRE(f.good(), "bit-flip write to '" << path_ << "' failed");
      break;
    }
    case FaultKind::kTruncate:
      // Cut the record in half and stop appending: the writer "died" with
      // this record in flight.
      std::filesystem::resize_file(path_, record_start + record_len / 2);
      dead_ = true;
      break;
    default:
      break;
  }
}

}  // namespace qfr::fault

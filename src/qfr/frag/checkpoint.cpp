#include "qfr/frag/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "qfr/common/error.hpp"
#include "qfr/common/record_log.hpp"

namespace qfr::frag {

namespace {

// Version 5: the frame CRC covers the fragment id. Files of any other
// version are rejected.
constexpr common::LogFormat kFormat{0x5146524Du /* "QFRM" */, 5,
                                    "checkpoint"};
constexpr std::uint64_t kSentinel = 0xC0FFEEu;

}  // namespace

void write_result_record(common::ByteWriter& w,
                         const engine::FragmentResult& r) {
  w.put_f64(r.energy);
  w.put_matrix(r.hessian);
  w.put_matrix(r.alpha);
  w.put_matrix(r.dalpha);
  w.put_matrix(r.dmu);
  w.put_u64(static_cast<std::uint64_t>(r.flops));
  w.put_u64(static_cast<std::uint64_t>(r.displacement_tasks));
  w.put_u64(kSentinel);  // record-complete sentinel
}

bool read_result_record(common::ByteReader& in, engine::FragmentResult* r) {
  std::uint64_t flops = 0, tasks = 0, sentinel = 0;
  const bool ok = in.get_f64(&r->energy) && in.get_matrix(&r->hessian) &&
                  in.get_matrix(&r->alpha) && in.get_matrix(&r->dalpha) &&
                  in.get_matrix(&r->dmu) && in.get_u64(&flops) &&
                  in.get_u64(&tasks) && in.get_u64(&sentinel) &&
                  sentinel == kSentinel;
  if (!ok) return false;
  r->flops = static_cast<std::int64_t>(flops);
  r->displacement_tasks = static_cast<int>(tasks);
  return true;
}

CheckpointWriter::CheckpointWriter(const std::string& path)
    : file_(path, std::ios::binary | std::ios::trunc) {
  QFR_REQUIRE(file_.good(), "cannot open '" << path << "' for writing");
  os_ = &file_;
  common::put_log_header(out_, kFormat);
  write_out("checkpoint header write failed");
}

CheckpointWriter::CheckpointWriter(std::ostream& os) : os_(&os) {
  common::put_log_header(out_, kFormat);
  write_out("checkpoint header write failed");
}

void CheckpointWriter::append(std::size_t fragment_id,
                              const engine::FragmentResult& result) {
  // The id rides inside the CRC-covered body: a flipped id bit fails the
  // check instead of filing the result under another fragment.
  common::put_frame(out_, [&](common::ByteWriter& w) {
    w.put_u64(static_cast<std::uint64_t>(fragment_id));
    write_result_record(w, result);
  });
  write_out("checkpoint append failed");
  ++n_;
}

void CheckpointWriter::write_out(const char* what) {
  os_->write(out_.view().data(), static_cast<std::streamsize>(out_.size()));
  // Flush per record: a killed run loses at most the record in flight.
  os_->flush();
  out_.clear();
  QFR_REQUIRE(os_->good(), what);
}

CheckpointReport scan_checkpoint(std::istream& is) {
  common::read_log_header(is, kFormat);
  CheckpointReport report;
  const common::LogScan scan = common::scan_frames(
      is, common::kLogHeaderBytes,
      [&](common::FrameStatus status, std::string_view body) {
        common::ByteReader in(body);
        std::uint64_t id = 0;
        const bool have_id = in.get_u64(&id);
        engine::FragmentResult r;
        if (status != common::FrameStatus::kOk || !have_id ||
            !read_result_record(in, &r)) {
          // Skip exactly this record and keep scanning from the next frame.
          ++report.n_corrupt;
          report.corrupt_ids.push_back(static_cast<std::size_t>(id));
          return;
        }
        report.fragment_ids.push_back(static_cast<std::size_t>(id));
        report.results.push_back(std::move(r));
      });
  report.truncated = scan.torn;
  return report;
}

CheckpointReport scan_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  QFR_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  return scan_checkpoint(is);
}

}  // namespace qfr::frag

#include "qfr/frag/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "qfr/common/error.hpp"
#include "qfr/common/record_log.hpp"

namespace qfr::frag {

namespace {

using common::get_u64;
using common::put_u64;

// Version 5: the frame CRC covers the fragment id. Files of any other
// version are rejected.
constexpr common::LogFormat kFormat{0x5146524Du /* "QFRM" */, 5,
                                    "checkpoint"};
constexpr std::uint64_t kSentinel = 0xC0FFEEu;

void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_matrix(std::ostream& os, const la::Matrix& m) {
  put_u64(os, m.rows());
  put_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(double)));
}

bool get_f64(std::istream& is, double* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}
bool get_matrix(std::istream& is, la::Matrix* m) {
  std::uint64_t rows = 0, cols = 0;
  if (!get_u64(is, &rows) || !get_u64(is, &cols)) return false;
  // Sanity bound: a fragment result never stores gigabyte matrices.
  if (rows > (1u << 20) || cols > (1u << 20)) return false;
  m->resize_zero(rows, cols);
  is.read(reinterpret_cast<char*>(m->data()),
          static_cast<std::streamsize>(m->size() * sizeof(double)));
  return is.good();
}

}  // namespace

void write_result_record(std::ostream& os, const engine::FragmentResult& r) {
  put_f64(os, r.energy);
  put_matrix(os, r.hessian);
  put_matrix(os, r.alpha);
  put_matrix(os, r.dalpha);
  put_matrix(os, r.dmu);
  put_u64(os, static_cast<std::uint64_t>(r.flops));
  put_u64(os, static_cast<std::uint64_t>(r.displacement_tasks));
  put_u64(os, kSentinel);  // record-complete sentinel
}

bool read_result_record(std::istream& is, engine::FragmentResult* r) {
  std::uint64_t flops = 0, tasks = 0, sentinel = 0;
  const bool ok = get_f64(is, &r->energy) && get_matrix(is, &r->hessian) &&
                  get_matrix(is, &r->alpha) && get_matrix(is, &r->dalpha) &&
                  get_matrix(is, &r->dmu) && get_u64(is, &flops) &&
                  get_u64(is, &tasks) && get_u64(is, &sentinel) &&
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
  common::write_log_header(*os_, kFormat);
  os_->flush();
  QFR_REQUIRE(os_->good(), "checkpoint header write failed");
}

CheckpointWriter::CheckpointWriter(std::ostream& os) : os_(&os) {
  common::write_log_header(*os_, kFormat);
  QFR_REQUIRE(os_->good(), "checkpoint header write failed");
}

void CheckpointWriter::append(std::size_t fragment_id,
                              const engine::FragmentResult& result) {
  // The id rides inside the CRC-covered body: a flipped id bit fails the
  // check instead of filing the result under another fragment.
  std::ostringstream body(std::ios::binary);
  put_u64(body, static_cast<std::uint64_t>(fragment_id));
  write_result_record(body, result);
  common::write_frame(*os_, body.view());
  // Flush per record: a killed run loses at most the record in flight.
  os_->flush();
  QFR_REQUIRE(os_->good(), "checkpoint append failed");
  ++n_;
}

CheckpointReport scan_checkpoint(std::istream& is) {
  common::read_log_header(is, kFormat);
  CheckpointReport report;
  const common::LogScan scan = common::scan_frames(
      is, common::kLogHeaderBytes,
      [&](common::FrameStatus status, std::string_view body) {
        std::istringstream bs(std::string(body), std::ios::binary);
        std::uint64_t id = 0;
        const bool have_id = get_u64(bs, &id);
        engine::FragmentResult r;
        if (status != common::FrameStatus::kOk || !have_id ||
            !read_result_record(bs, &r)) {
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

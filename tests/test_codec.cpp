// Golden-bytes oracle for every result-carrying encoding: the checkpoint
// frame, the result-cache store frame and one frame of each of the six
// wire message types (two for kResult: an accepted and a failed attempt).
// The checkpoint and store values were taken from the iostream-based
// encoders that preceded the shared common/ byte codec; the wire values
// from the first wire v3 encoders. Any drift in a byte layout (field
// order, width, endianness, the matrix header, a length prefix) changes a
// CRC here before it can strand an existing checkpoint or store, or split
// a mixed-build master and leader.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "qfr/cache/store.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/crc32.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/la/matrix.hpp"
#include "qfr/runtime/wire.hpp"
#include "scratch_path.hpp"

namespace qfr {
namespace {

using runtime::wire::MsgType;

// Both record logs open with [magic u64][version u64].
constexpr std::size_t kLogHeaderBytes = 16;

/// One two-atom result whose values exercise the awkward corners of a
/// raw-IEEE encoding: a repeating fraction, a negative zero, a denormal
/// and the largest finite double.
engine::FragmentResult golden_result() {
  engine::FragmentResult r;
  r.energy = 1.0 / 3.0;
  r.hessian = la::Matrix(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      r.hessian(i, j) =
          (static_cast<double>(i) - static_cast<double>(j)) / 7.0;
  r.hessian(0, 5) = -0.0;
  r.hessian(5, 0) = std::numeric_limits<double>::denorm_min();
  r.alpha = la::Matrix(3, 3);
  r.alpha(0, 0) = 1.0 / 3.0;
  r.alpha(1, 1) = -0.0;
  r.alpha(2, 2) = DBL_MAX;
  r.dalpha = la::Matrix(6, 6);
  r.dalpha(5, 1) = 2.0 / 7.0;
  r.dalpha(0, 4) = -DBL_MAX;
  r.dmu = la::Matrix(3, 6);
  r.dmu(2, 0) = -1.0 / 9.0;
  r.dmu(1, 3) = 4.0 * std::numeric_limits<double>::denorm_min();
  r.phase_times.p1 = 0.25;
  r.phase_times.n1 = 1.0 / 3.0;
  r.phase_times.v1 = -0.0;
  r.phase_times.h1 = 0.75;
  r.flops = 1234567890123ll;
  r.displacement_tasks = 19;
  return r;
}

/// A diatomic for the store entry: the store keys and rotates it by its
/// canonicalization, which is deterministic, so the frame is too.
chem::Molecule golden_molecule() {
  chem::Molecule mol;
  mol.add(chem::Element::H, {0.0, 0.0, -0.7});
  mol.add(chem::Element::F, {0.0, 0.0, 1.05});
  return mol;
}

/// A frame's size, the crc32 of everything before its trailing checksum
/// field, and that field itself. The field is pinned apart because a CRC
/// taken over a message followed by its own CRC is a constant for a given
/// length: equal-length frames would all share one whole-frame CRC.
struct Golden {
  const char* name;
  std::size_t size;
  std::uint32_t crc;
  std::uint64_t check;
};

void expect_golden(const Golden& g, const std::string& bytes,
                   std::size_t check_bytes) {
  ASSERT_GE(bytes.size(), check_bytes) << g.name;
  const std::size_t head = bytes.size() - check_bytes;
  std::uint64_t check = 0;
  std::memcpy(&check, bytes.data() + head, check_bytes);
  EXPECT_EQ(bytes.size(), g.size) << g.name;
  EXPECT_EQ(common::crc32(bytes.data(), head), g.crc) << g.name;
  EXPECT_EQ(check, g.check) << g.name;
}

// Log frames end in [crc32(body) u64]; wire frames in [crc32 u32].
void expect_log_golden(const Golden& g, const std::string& bytes) {
  expect_golden(g, bytes, sizeof(std::uint64_t));
}
void expect_wire_golden(const Golden& g, const std::string& bytes) {
  expect_golden(g, bytes, sizeof(std::uint32_t));
}

std::string checkpoint_frame() {
  std::ostringstream os(std::ios::binary);
  frag::CheckpointWriter writer(os);
  writer.append(42, golden_result());
  return os.str().substr(kLogHeaderBytes);
}

std::string store_frame() {
  const std::string path = scratch_path("qfr_codec_golden.store");
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  {
    cache::CacheOptions o;
    o.enabled = true;
    o.tolerance = 1e-4;
    o.store_path = path;
    cache::ResultCache cache(o);
    EXPECT_TRUE(cache.insert("golden", golden_molecule(), golden_result()));
  }
  std::ifstream is(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return bytes.size() > kLogHeaderBytes ? bytes.substr(kLogHeaderBytes)
                                        : std::string();
}

TEST(Codec, EncodingsAreByteIdenticalToTheParent) {
  namespace wire = runtime::wire;
  expect_log_golden({"checkpoint", 912, 510949065u, 2046965471u},
                    checkpoint_frame());
  expect_log_golden({"store", 1006, 66533136u, 3784881535u}, store_frame());

  wire::TaskMsg task;
  task.items.push_back({17, 5, 0, 9});
  task.items.push_back({0, 1, 2, 21});
  wire::ResultMsg result;
  result.fragment_id = 41;
  result.epoch = 7;
  result.level = 1;
  result.seconds = 1.0 / 3.0;
  result.result = golden_result();
  result.result.cache_hit = true;
  result.result.reuse_tier = engine::ReuseTier::kRefresh;
  wire::ResultMsg failed;
  failed.fragment_id = 9;
  failed.epoch = 2;
  failed.level = 1;
  failed.reason = runtime::FailureReason::kTimeout;
  failed.error = "engine: CPSCF diverged";
  wire::StatsMsg stats;
  stats.busy_seconds = 2.5;
  stats.counters = {{"qfr.runtime.tasks", 11}, {"qfr.cache.misses", -2}};

  expect_wire_golden({"task", 96, 3613490366u, 671176141u},
                     wire::encode_frame(MsgType::kTask,
                                        wire::encode_task(task)));
  expect_wire_golden({"result", 1016, 4155878013u, 1580755046u},
                     wire::encode_frame(MsgType::kResult,
                                        wire::encode_result(result)));
  expect_wire_golden({"result.failed", 246, 3767429597u, 3334622925u},
                     wire::encode_frame(MsgType::kResult,
                                        wire::encode_result(failed)));
  expect_wire_golden({"heartbeat", 24, 1389533928u, 709777991u},
                     wire::encode_frame(MsgType::kHeartbeat, ""));
  expect_wire_golden({"cancel", 40, 2044105426u, 390137325u},
                     wire::encode_frame(MsgType::kCancel,
                                        wire::encode_cancel({5, 6})));
  expect_wire_golden({"retire", 24, 3152234998u, 3279915353u},
                     wire::encode_frame(MsgType::kRetire, ""));
  expect_wire_golden({"stats", 105, 2442770852u, 3523008736u},
                     wire::encode_frame(MsgType::kStats,
                                        wire::encode_stats(stats)));
}

}  // namespace
}  // namespace qfr

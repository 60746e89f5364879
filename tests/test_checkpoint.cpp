#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "qfr/cache/canonical.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/chem/molecule.hpp"
#include "qfr/common/byte_codec.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/log.hpp"
#include "qfr/common/record_log.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/traj/runner.hpp"
#include "scratch_path.hpp"

namespace qfr::frag {
namespace {

std::vector<engine::FragmentResult> sample_results() {
  engine::ModelEngine eng;
  std::vector<engine::FragmentResult> results;
  results.push_back(eng.compute(chem::make_water({0, 0, 0})));
  results.push_back(eng.compute(chem::make_water({10, 0, 0}, 1.0)));
  return results;
}

// Serialized result record: two results are bitwise equal exactly when
// their record bytes are.
std::string record_bytes(const engine::FragmentResult& r) {
  common::ByteWriter w;
  write_result_record(w, r);
  return std::move(w).take();
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  for (std::size_t i = 0; i < original.size(); ++i)
    writer.append(i, original[i]);
  const CheckpointReport scan = scan_checkpoint(ss);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 0u);
  ASSERT_EQ(scan.results.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(scan.fragment_ids[i], i);
    EXPECT_EQ(scan.results[i].flops, original[i].flops);
    EXPECT_EQ(scan.results[i].displacement_tasks,
              original[i].displacement_tasks);
    EXPECT_EQ(record_bytes(scan.results[i]), record_bytes(original[i]));
  }
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream ss("this is not a checkpoint");
  EXPECT_THROW(scan_checkpoint(ss), InvalidArgument);
}

TEST(Checkpoint, RejectsWrongVersion) {
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, sample_results()[0]);
  std::string data = ss.str();
  const std::uint64_t v4 = 4;  // the layout whose CRC left the id out
  std::memcpy(data.data() + 8, &v4, sizeof(v4));
  std::stringstream bad(data);
  try {
    scan_checkpoint(bad);
    FAIL() << "a version-4 checkpoint was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got 4"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 5"), std::string::npos) << what;
  }
}

TEST(Checkpoint, FileRoundTrip) {
  const auto original = sample_results();
  const std::string path = scratch_path("qfr_checkpoint_test.bin");
  {
    CheckpointSink stale(path);
    stale.on_result(9, original[1]);
  }
  {
    // A new sink truncates: the stale record does not survive.
    CheckpointSink sink(path);
    sink.on_result(0, original[0]);
    sink.on_result(1, original[1]);
  }
  const CheckpointReport scan = scan_checkpoint_file(path);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.fragment_ids, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(record_bytes(scan.results[1]), record_bytes(original[1]));
  std::filesystem::remove(path);
}

TEST(Checkpoint, RestartProducesIdenticalAssembly) {
  // Full restart cycle: run the sweep, checkpoint, reload, and verify the
  // assembled global properties are bitwise identical.
  BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  sys.waters.push_back(chem::make_water({6.0, 0, 0}));  // within lambda
  const Fragmentation fr = fragment_biosystem(sys);
  engine::ModelEngine eng;
  std::vector<engine::FragmentResult> results;
  for (const auto& f : fr.fragments)
    results.push_back(eng.compute_with_topology(f.mol, f.bonds));

  std::stringstream ss;
  CheckpointWriter writer(ss);
  for (std::size_t i = 0; i < results.size(); ++i)
    writer.append(i, results[i]);
  const CheckpointReport loaded = scan_checkpoint(ss);
  ASSERT_EQ(loaded.results.size(), results.size());
  ASSERT_EQ(loaded.n_corrupt, 0u);

  const auto direct =
      assemble_global_properties(sys, fr.fragments, results);
  const auto restored =
      assemble_global_properties(sys, fr.fragments, loaded.results);
  EXPECT_LT(la::max_abs_diff(direct.hessian_mw.to_dense(),
                             restored.hessian_mw.to_dense()),
            0.0 + 1e-300);
  EXPECT_LT(la::max_abs_diff(direct.dalpha_mw, restored.dalpha_mw),
            0.0 + 1e-300);
}

TEST(Checkpoint, EmptyResultSetRoundTrips) {
  std::stringstream ss;
  CheckpointWriter writer(ss);
  const CheckpointReport scan = scan_checkpoint(ss);
  EXPECT_TRUE(scan.results.empty());
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 0u);
}

// The checkpoint layout the surgical tests below rely on:
//   header: [magic u64][version u64]
//   frame:  [body len u64][body = fragment id u64 + result record][crc u64]
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kFrameOverhead = 24;  // body length, id and CRC

std::uint64_t read_u64(const std::string& data, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

TEST(IncrementalCheckpoint, AppendScanRoundTrip) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(4, original[0]);
  writer.append(1, original[1]);
  EXPECT_EQ(writer.n_written(), 2u);
  // Framing costs 24 bytes per record on top of the record itself.
  EXPECT_EQ(ss.str().size(), kHeaderBytes + 2 * kFrameOverhead +
                                 record_bytes(original[0]).size() +
                                 record_bytes(original[1]).size());

  const CheckpointReport scan = scan_checkpoint(ss);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 2u);
  EXPECT_EQ(scan.fragment_ids[0], 4u);  // append order, ids out of order OK
  EXPECT_EQ(scan.fragment_ids[1], 1u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[0].energy);
  EXPECT_LT(la::max_abs_diff(scan.results[1].hessian, original[1].hessian),
            1e-300);
}

TEST(IncrementalCheckpoint, TruncatedTailDroppedAndFlagged) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();
  data.resize(data.size() - 37);  // kill the run mid-record
  std::stringstream cut(data);
  const CheckpointReport scan = scan_checkpoint(cut);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 1u);  // completed prefix survives
  EXPECT_EQ(scan.fragment_ids[0], 0u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[0].energy);
}

TEST(IncrementalCheckpoint, SingleBitFlipLosesOnlyThatRecord) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();

  // Flip one bit in the middle of record 0's result.
  const std::uint64_t len0 = read_u64(data, kHeaderBytes);
  data[kHeaderBytes + 16 + (len0 - 8) / 2] ^= 0x10;

  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 1u);
  ASSERT_EQ(scan.corrupt_ids.size(), 1u);
  EXPECT_EQ(scan.corrupt_ids[0], 0u);
  // The record after the damage is still read in full.
  ASSERT_EQ(scan.fragment_ids.size(), 1u);
  EXPECT_EQ(scan.fragment_ids[0], 1u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[1].energy);
  EXPECT_LT(la::max_abs_diff(scan.results[0].hessian, original[1].hessian),
            1e-300);
}

TEST(IncrementalCheckpoint, IdBitFlipIsReportedNotMisattributed) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(4, original[0]);
  const std::size_t second = ss.str().size();
  writer.append(5, original[1]);
  std::string data = ss.str();

  // Find fragment 5's id among the second frame's leading fields (so the
  // test does not depend on where the frame keeps it) and flip bit 0,
  // turning it into fragment 4's id.
  std::size_t id_at = second;
  while (id_at < second + 16 && read_u64(data, id_at) != 5u) id_at += 8;
  ASSERT_LT(id_at, second + 16);
  data[id_at] ^= 0x01;

  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 1u);
  EXPECT_EQ(scan.corrupt_ids.size(), 1u);
  // Only fragment 4's own record is accepted: fragment 5's result never
  // lands under id 4.
  ASSERT_EQ(scan.fragment_ids, (std::vector<std::size_t>{4}));
  EXPECT_EQ(record_bytes(scan.results[0]), record_bytes(original[0]));
}

TEST(IncrementalCheckpoint, CorruptLengthFieldStopsScanAsTruncated) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();
  // Clobber record 0's length: the frame boundary is lost, so the scan
  // cannot safely reach record 1.
  data[kHeaderBytes + 6] = static_cast<char>(0xFF);
  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_TRUE(scan.truncated);
  EXPECT_TRUE(scan.fragment_ids.empty());
}

TEST(IncrementalCheckpoint, RuntimeCrashThenResumeRecomputesOnlyMissing) {
  // The acceptance cycle: a sweep dies on fragment k, the checkpoint
  // holds the completed prefix, and the resumed sweep recomputes only
  // what is missing.
  BioSystem sys;
  for (int i = 0; i < 6; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const Fragmentation fr = fragment_biosystem(sys);
  const std::string path = scratch_path("qfr_incremental_resume_test.bin");
  engine::ModelEngine eng;

  // First run: fragment 4 fails persistently; the rest complete and
  // stream to the checkpoint.
  std::atomic<int> first_run_computes{0};
  {
    CheckpointSink sink(path);
    runtime::RuntimeOptions opts;
    opts.n_leaders = 2;
    opts.max_retries = 0;
    opts.abort_on_failure = false;
    opts.sink = &sink;
    const runtime::MasterRuntime rt(std::move(opts));
    const auto report =
        rt.run(fr.fragments, [&](const Fragment& f) {
          if (f.id == 4) throw std::runtime_error("node died");
          first_run_computes.fetch_add(1);
          return eng.compute_with_topology(f.mol, f.bonds);
        });
    EXPECT_EQ(report.n_failed(), 1u);
    EXPECT_EQ(sink.writer().n_written(), 5u);
  }

  // Resume: seed the scheduler with the checkpointed ids and count the
  // compute invocations — only fragment 4 may run.
  const CheckpointReport scan = scan_checkpoint_file(path);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 5u);

  std::atomic<int> resumed_computes{0};
  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.completed_ids = scan.fragment_ids;
  const runtime::MasterRuntime rt(std::move(opts));
  auto report = rt.run(fr.fragments, [&](const Fragment& f) {
    resumed_computes.fetch_add(1);
    EXPECT_EQ(f.id, 4u);  // everything else came from the checkpoint
    return eng.compute_with_topology(f.mol, f.bonds);
  });
  EXPECT_EQ(resumed_computes.load(), 1);
  EXPECT_EQ(report.n_resumed, 5u);
  EXPECT_TRUE(report.outcomes[4].completed);
  EXPECT_FALSE(report.outcomes[4].from_checkpoint);

  // Merge the checkpointed records and verify the assembly matches a
  // clean serial reference.
  for (std::size_t k = 0; k < scan.fragment_ids.size(); ++k)
    report.results[scan.fragment_ids[k]] = scan.results[k];
  std::vector<engine::FragmentResult> serial;
  for (const auto& f : fr.fragments)
    serial.push_back(eng.compute_with_topology(f.mol, f.bonds));
  const auto a = assemble_global_properties(sys, fr.fragments, serial);
  const auto b =
      assemble_global_properties(sys, fr.fragments, report.results);
  EXPECT_LT(la::max_abs_diff(a.hessian_mw.to_dense(),
                             b.hessian_mw.to_dense()),
            1e-300);
}

// ---------------------------------------------------------------------
// Crash consistency: cut every persisted log at every byte offset, and
// flip every bit of one frame of the binary logs. Whatever survives must
// be exactly what was written, under its own id or key, and every loss
// must be reported.
// ---------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<engine::FragmentResult> three_results() {
  auto results = sample_results();
  results.push_back(engine::ModelEngine().compute(
      chem::make_water({0, 5, 0}, 2.0)));
  return results;
}

/// A checkpoint of three_results() under ids 7, 3, 9, with the byte
/// offset at which each frame ends.
struct CheckpointBytes {
  std::vector<engine::FragmentResult> results = three_results();
  std::vector<std::size_t> ids{7, 3, 9};
  std::string data;
  std::vector<std::size_t> frame_end;

  CheckpointBytes() {
    std::stringstream ss;
    CheckpointWriter writer(ss);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      writer.append(ids[k], results[k]);
      frame_end.push_back(ss.str().size());
    }
    data = ss.str();
  }

  /// Every accepted record is a written one, bitwise, under its own id.
  void expect_faithful(const CheckpointReport& scan) const {
    ASSERT_EQ(scan.fragment_ids.size(), scan.results.size());
    for (std::size_t r = 0; r < scan.fragment_ids.size(); ++r) {
      const auto it =
          std::find(ids.begin(), ids.end(), scan.fragment_ids[r]);
      ASSERT_NE(it, ids.end()) << "unknown id " << scan.fragment_ids[r];
      EXPECT_EQ(record_bytes(scan.results[r]),
                record_bytes(results[static_cast<std::size_t>(
                    it - ids.begin())]))
          << "id " << scan.fragment_ids[r] << " holds another record";
    }
  }
};

TEST(CrashConsistency, CheckpointTruncatedAtEveryByte) {
  const CheckpointBytes ck;
  for (std::size_t cut = 0; cut <= ck.data.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::stringstream ss(ck.data.substr(0, cut));
    if (cut < kHeaderBytes) {
      EXPECT_THROW(scan_checkpoint(ss), InvalidArgument);
      continue;
    }
    const CheckpointReport scan = scan_checkpoint(ss);
    std::size_t n_complete = 0;
    bool on_boundary = cut == kHeaderBytes;
    for (const std::size_t end : ck.frame_end) {
      n_complete += end <= cut ? 1 : 0;
      on_boundary = on_boundary || end == cut;
    }
    ASSERT_EQ(scan.fragment_ids.size(), n_complete);
    for (std::size_t k = 0; k < n_complete; ++k)
      EXPECT_EQ(scan.fragment_ids[k], ck.ids[k]);
    ck.expect_faithful(scan);
    EXPECT_EQ(scan.truncated, !on_boundary);
    EXPECT_EQ(scan.n_corrupt, 0u);
  }
}

TEST(CrashConsistency, CheckpointBitFlipsAreNeverMisattributed) {
  const CheckpointBytes ck;
  // The file header and the middle frame, every bit.
  std::vector<std::size_t> bytes;
  for (std::size_t b = 0; b < kHeaderBytes; ++b) bytes.push_back(b);
  for (std::size_t b = ck.frame_end[0]; b < ck.frame_end[1]; ++b)
    bytes.push_back(b);
  for (const std::size_t byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string data = ck.data;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      std::stringstream ss(data);
      if (byte < kHeaderBytes) {
        EXPECT_THROW(scan_checkpoint(ss), InvalidArgument);
        continue;
      }
      const CheckpointReport scan = scan_checkpoint(ss);
      ck.expect_faithful(scan);
      // The frame before the damage always survives; the flipped one
      // never does, and its loss is reported.
      ASSERT_FALSE(scan.fragment_ids.empty());
      EXPECT_EQ(scan.fragment_ids[0], ck.ids[0]);
      EXPECT_EQ(std::count(scan.fragment_ids.begin(), scan.fragment_ids.end(),
                           ck.ids[1]),
                0);
      EXPECT_TRUE(scan.n_corrupt > 0 || scan.truncated);
    }
  }
}

/// A three-entry result-cache store, with the byte offset at which each
/// entry's frame ends, the canonical-frame entries as stored, and a
/// scratch path to replay damaged copies from.
struct StoreBytes {
  std::string path;
  std::vector<chem::Molecule> mols;
  std::vector<engine::FragmentResult> canonical;
  std::string data;
  std::vector<std::size_t> frame_end;

  explicit StoreBytes(const std::string& name) : path(scratch_path(name)) {
    std::filesystem::remove(path);
    const engine::ModelEngine eng;
    cache::ResultCache cache(options());
    for (int k = 0; k < 3; ++k) {
      chem::Molecule m = chem::make_water({0, 0, 0});
      m.atom(1).position += geom::Vec3{0.1 * (k + 1), 0, 0};
      const engine::FragmentResult lab = eng.compute(m);
      EXPECT_TRUE(cache.insert("model", m, lab));
      canonical.push_back(cache::to_canonical_frame(
          lab, cache::canonicalize(m, options().tolerance, "model")));
      mols.push_back(std::move(m));
      frame_end.push_back(std::filesystem::file_size(path));
    }
    data = read_file(path);
  }
  ~StoreBytes() {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".lock");
  }

  cache::CacheOptions options() const {
    cache::CacheOptions o;
    o.enabled = true;
    o.store_path = path;
    return o;
  }

  /// Entries present in `cache`, each checked bitwise against the one
  /// written under its key; no entry exists under any other key.
  std::vector<bool> present(cache::ResultCache& cache) const {
    std::vector<bool> found;
    for (std::size_t k = 0; k < mols.size(); ++k) {
      const auto hit = cache.probe(
          cache::canonicalize(mols[k], options().tolerance, "model"));
      found.push_back(hit.has_value());
      if (hit)
        EXPECT_EQ(record_bytes(*hit), record_bytes(canonical[k]))
            << "entry " << k << " holds another record";
    }
    EXPECT_EQ(cache.stats().entries,
              static_cast<std::size_t>(
                  std::count(found.begin(), found.end(), true)));
    return found;
  }
};

TEST(CrashConsistency, CacheStoreTruncatedAtEveryByte) {
  const StoreBytes st("qfr_crash_truncate.qfrc");
  for (std::size_t cut = 0; cut <= st.data.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    write_file(st.path, std::string_view(st.data).substr(0, cut));
    if (cut > 0 && cut < kHeaderBytes) {
      EXPECT_THROW(cache::ResultCache{st.options()}, InvalidArgument);
      continue;
    }
    cache::ResultCache cache(st.options());
    const std::vector<bool> found = st.present(cache);
    bool on_boundary = cut <= kHeaderBytes;
    for (std::size_t k = 0; k < found.size(); ++k) {
      EXPECT_EQ(found[k], st.frame_end[k] <= cut) << "entry " << k;
      on_boundary = on_boundary || st.frame_end[k] == cut;
    }
    const cache::CacheStats s = cache.stats();
    EXPECT_EQ(s.store_corrupt, on_boundary ? 0 : 1);
    EXPECT_EQ(s.store_skipped, 0);
  }
}

TEST(CrashConsistency, CacheStoreBitFlipsAreNeverMisattributed) {
  const StoreBytes st("qfr_crash_bitflip.qfrc");
  std::vector<std::size_t> bytes;
  for (std::size_t b = 0; b < kHeaderBytes; ++b) bytes.push_back(b);
  for (std::size_t b = st.frame_end[0]; b < st.frame_end[1]; ++b)
    bytes.push_back(b);
  for (const std::size_t byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string data = st.data;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      write_file(st.path, data);
      if (byte < kHeaderBytes) {
        EXPECT_THROW(cache::ResultCache{st.options()}, InvalidArgument);
        continue;
      }
      std::size_t n_found = 0;
      {
        cache::ResultCache cache(st.options());
        const std::vector<bool> found = st.present(cache);
        EXPECT_TRUE(found[0]);
        EXPECT_FALSE(found[1]);
        EXPECT_GT(cache.stats().store_corrupt, 0);
        n_found = static_cast<std::size_t>(
            std::count(found.begin(), found.end(), true));
      }
      // The load rewrote a clean store: a reload reports no damage and
      // serves the same entries.
      cache::ResultCache again(st.options());
      EXPECT_EQ(again.stats().store_corrupt, 0);
      EXPECT_EQ(again.stats().store_loaded, static_cast<std::int64_t>(n_found));
      st.present(again);
    }
  }
}

/// Record-log frame around [prefix][result record], the record's Hessian
/// header rewritten to claim 2^20 x 2^20 (8 TiB): CRC-valid, so only the
/// reader's check of sizes against the bytes left can reject it.
template <class Prefix>
std::string hostile_frame(const engine::FragmentResult& r,
                          const Prefix& prefix) {
  std::string record = record_bytes(r);
  const std::uint64_t dim = 1u << 20;
  std::uint64_t rows = 0;
  std::memcpy(&rows, &record[8], sizeof(rows));  // after the energy
  EXPECT_EQ(rows, r.hessian.rows());
  std::memcpy(&record[8], &dim, sizeof(dim));   // Hessian rows
  std::memcpy(&record[16], &dim, sizeof(dim));  // Hessian cols
  common::ByteWriter w;
  common::put_frame(w, [&](common::ByteWriter& body) {
    prefix(body);
    body.put_bytes(record.data(), record.size());
  });
  return std::string(w.view());
}

TEST(CrashConsistency, CheckpointHostileMatrixSizeIsSkipped) {
  const CheckpointBytes ck;
  std::stringstream ss(
      ck.data.substr(0, ck.frame_end[0]) +
      hostile_frame(ck.results[1],
                    [&](common::ByteWriter& w) { w.put_u64(ck.ids[1]); }) +
      ck.data.substr(ck.frame_end[1]));
  const CheckpointReport scan = scan_checkpoint(ss);
  ck.expect_faithful(scan);
  EXPECT_EQ(scan.fragment_ids,
            (std::vector<std::size_t>{ck.ids[0], ck.ids[2]}));
  EXPECT_EQ(scan.n_corrupt, 1u);
  EXPECT_EQ(scan.corrupt_ids, std::vector<std::size_t>{ck.ids[1]});
  EXPECT_FALSE(scan.truncated);
}

TEST(CrashConsistency, CacheStoreHostileMatrixSizeIsSkipped) {
  const StoreBytes st("qfr_crash_hostile.qfrc");
  const cache::FragmentKey key =
      cache::canonicalize(st.mols[1], st.options().tolerance, "model").key;
  write_file(st.path,
             st.data.substr(0, st.frame_end[0]) +
                 hostile_frame(st.canonical[1],
                               [&](common::ByteWriter& w) {
                                 cache::write_key(w, key);
                               }) +
                 st.data.substr(st.frame_end[1]));
  cache::ResultCache cache(st.options());
  EXPECT_EQ(st.present(cache), (std::vector<bool>{true, false, true}));
  EXPECT_EQ(cache.stats().store_corrupt, 1);
  EXPECT_EQ(cache.stats().store_loaded, 2);
}

TEST(CrashConsistency, SpectrumSeriesTruncatedAtEveryByte) {
  const std::string path = scratch_path("qfr_crash_consistency.jsonl");
  std::vector<traj::FrameSummary> written(3);
  {
    traj::JsonlSpectrumSink sink(path);
    for (std::size_t k = 0; k < written.size(); ++k) {
      traj::FrameSummary& f = written[k];
      f.frame = k;
      f.comment = "frame " + std::to_string(k);
      f.wall_seconds = 0.1 * static_cast<double>(k + 1);
      f.n_fragments = 3;
      f.tiers.full = static_cast<std::int64_t>(k);
      f.spectrum.omega_cm = {100.0 / 3.0, 200.0, 1e3 * (k + 1)};
      f.spectrum.intensity = {0.1, 2.0 / 7.0, 0.2 * k};
      sink.on_frame(f);
    }
  }
  const std::string data = read_file(path);
  // Every damaged cut logs a warning; keep the thousand of them quiet.
  const LogLevel log_level = Log::level();
  Log::set_level(LogLevel::kError);
  // A frame is its JSON text; the newline after it is the boundary.
  std::vector<std::size_t> line_start{0}, line_end;
  for (std::size_t i = 0; i < data.size(); ++i)
    if (data[i] == '\n') {
      line_end.push_back(i);
      line_start.push_back(i + 1);
    }
  ASSERT_EQ(line_end.size(), 3u);

  // Every complete frame before the cut restores bitwise as written.
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    write_file(path, std::string_view(data).substr(0, cut));
    const traj::JsonlSpectrumSink sink(path, /*resume=*/true);
    std::size_t n_complete = 0;
    bool inside = false;
    for (std::size_t k = 0; k < line_end.size(); ++k) {
      n_complete += line_end[k] <= cut ? 1 : 0;
      inside = inside || (line_start[k] < cut && cut < line_end[k]);
    }
    ASSERT_EQ(sink.restored().size(), n_complete);
    for (std::size_t k = 0; k < n_complete; ++k) {
      const traj::FrameSummary& a = sink.restored()[k];
      const traj::FrameSummary& b = written[k];
      EXPECT_EQ(a.frame, b.frame);
      EXPECT_EQ(a.comment, b.comment);
      EXPECT_EQ(a.n_fragments, b.n_fragments);
      EXPECT_EQ(a.tiers.full, b.tiers.full);
      EXPECT_EQ(std::memcmp(&a.wall_seconds, &b.wall_seconds, sizeof(double)),
                0);
      ASSERT_EQ(a.spectrum.omega_cm.size(), b.spectrum.omega_cm.size());
      EXPECT_EQ(std::memcmp(a.spectrum.omega_cm.data(),
                            b.spectrum.omega_cm.data(),
                            b.spectrum.omega_cm.size() * sizeof(double)),
                0);
      ASSERT_EQ(a.spectrum.intensity.size(), b.spectrum.intensity.size());
      EXPECT_EQ(std::memcmp(a.spectrum.intensity.data(),
                            b.spectrum.intensity.data(),
                            b.spectrum.intensity.size() * sizeof(double)),
                0);
    }
    EXPECT_EQ(sink.n_dropped(), inside ? 1u : 0u);
  }
  Log::set_level(log_level);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace qfr::frag

// Wire-protocol robustness: round-trips every master<->leader-process
// message type bitwise exactly, then attacks the framing layer the way a
// crashed or corrupted peer would — truncation at every byte boundary,
// every single-bit flip, version skew, unknown types, oversized and
// hostile length/count fields. Every attack must surface as a typed
// DecodeStatus (or a false decode_* return), never as UB; this test is
// mirrored into the ASan/UBSan CI matrix to enforce the "never" part.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "qfr/engine/fragment_engine.hpp"
#include "qfr/la/matrix.hpp"
#include "qfr/runtime/wire.hpp"

namespace qfr::runtime::wire {
namespace {

// Header layout: magic u32 | version u32 | type u32 | payload_len u64.
constexpr std::size_t kHeaderBytes = 20;

engine::FragmentResult sample_result(std::size_t n_atoms) {
  engine::FragmentResult r;
  r.energy = -76.026765431234567;
  r.hessian = la::Matrix(3 * n_atoms, 3 * n_atoms);
  for (std::size_t i = 0; i < r.hessian.rows(); ++i)
    for (std::size_t j = 0; j < r.hessian.cols(); ++j)
      r.hessian(i, j) = 0.1 * static_cast<double>(i) -
                        0.01 * static_cast<double>(j) + 1.0 / 3.0;
  r.alpha = la::Matrix(3, 3);
  r.alpha(0, 0) = 9.87654321;
  r.alpha(1, 2) = -0.123456789;
  r.dalpha = la::Matrix(6, 3 * n_atoms);
  r.dalpha(5, 1) = 2.0 / 7.0;
  r.dmu = la::Matrix(3, 3 * n_atoms);
  r.dmu(2, 0) = -1.0 / 9.0;
  r.phase_times.p1 = 0.25;
  r.phase_times.h1 = 0.75;
  r.flops = 1234567890123ll;
  r.displacement_tasks = 19;
  return r;
}

Frame decode_one(const std::string& bytes) {
  FrameReader reader;
  reader.append(bytes);
  Frame f;
  EXPECT_EQ(reader.next(&f), DecodeStatus::kFrame);
  EXPECT_EQ(reader.next(&f), DecodeStatus::kNeedMore);  // buffer drained
  return f;
}

// ---------------------------------------------------------------------
// Round trips: every message type, bitwise-exact payloads.
// ---------------------------------------------------------------------

TEST(Wire, TaskRoundTrip) {
  TaskMsg in;
  in.items.push_back({17, 5, 0, 9});
  in.items.push_back({0, 1, 2, 21});
  const Frame f = decode_one(encode_frame(MsgType::kTask, encode_task(in)));
  ASSERT_EQ(f.type, MsgType::kTask);
  TaskMsg out;
  ASSERT_TRUE(decode_task(f.payload, &out));
  ASSERT_EQ(out.items.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.items[i].fragment_id, in.items[i].fragment_id);
    EXPECT_EQ(out.items[i].epoch, in.items[i].epoch);
    EXPECT_EQ(out.items[i].level, in.items[i].level);
    EXPECT_EQ(out.items[i].n_atoms, in.items[i].n_atoms);
  }
}

TEST(Wire, ResultRoundTripIsBitwiseExact) {
  ResultMsg in;
  in.fragment_id = 41;
  in.epoch = 7;
  in.level = 1;
  in.seconds = 0.037251234;
  in.result = sample_result(3);
  in.result.cache_hit = true;
  in.result.reuse_tier = engine::ReuseTier::kRefresh;
  const Frame f =
      decode_one(encode_frame(MsgType::kResult, encode_result(in)));
  ASSERT_EQ(f.type, MsgType::kResult);
  ResultMsg out;
  ASSERT_TRUE(decode_result(f.payload, &out));
  EXPECT_EQ(out.fragment_id, in.fragment_id);
  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.level, in.level);
  EXPECT_EQ(out.seconds, in.seconds);  // bitwise: == on doubles on purpose
  EXPECT_EQ(out.reason, FailureReason::kNone);
  EXPECT_TRUE(out.error.empty());
  EXPECT_EQ(out.result.cache_hit, in.result.cache_hit);
  EXPECT_EQ(out.result.reuse_tier, in.result.reuse_tier);
  EXPECT_EQ(out.result.energy, in.result.energy);
  ASSERT_EQ(out.result.hessian.rows(), in.result.hessian.rows());
  ASSERT_EQ(out.result.hessian.cols(), in.result.hessian.cols());
  for (std::size_t i = 0; i < in.result.hessian.rows(); ++i)
    for (std::size_t j = 0; j < in.result.hessian.cols(); ++j)
      EXPECT_EQ(out.result.hessian(i, j), in.result.hessian(i, j));
  EXPECT_EQ(out.result.alpha(1, 2), in.result.alpha(1, 2));
  EXPECT_EQ(out.result.dalpha(5, 1), in.result.dalpha(5, 1));
  EXPECT_EQ(out.result.dmu(2, 0), in.result.dmu(2, 0));
  EXPECT_EQ(out.result.phase_times.p1, in.result.phase_times.p1);
  EXPECT_EQ(out.result.phase_times.h1, in.result.phase_times.h1);
  EXPECT_EQ(out.result.flops, in.result.flops);
  EXPECT_EQ(out.result.displacement_tasks, in.result.displacement_tasks);
}

// A failed attempt travels as a result message with an empty result:
// every reason, and its message, must survive the trip.
TEST(Wire, FailureRoundTripAllReasons) {
  for (const FailureReason reason :
       {FailureReason::kNone, FailureReason::kEngineError,
        FailureReason::kInvalidResult, FailureReason::kNonConvergence,
        FailureReason::kTimeout, FailureReason::kCancelled}) {
    ResultMsg in;
    in.fragment_id = 8;
    in.epoch = 2;
    in.level = 1;
    in.reason = reason;
    in.error = "SCF failed to converge after 128 cycles";
    const Frame f =
        decode_one(encode_frame(MsgType::kResult, encode_result(in)));
    ASSERT_EQ(f.type, MsgType::kResult);
    ResultMsg out;
    ASSERT_TRUE(decode_result(f.payload, &out));
    EXPECT_EQ(out.fragment_id, in.fragment_id);
    EXPECT_EQ(out.epoch, in.epoch);
    EXPECT_EQ(out.level, in.level);
    EXPECT_EQ(static_cast<int>(out.reason), static_cast<int>(reason));
    EXPECT_EQ(out.error, in.error);
    EXPECT_TRUE(out.result.hessian.empty());
  }
}

TEST(Wire, CancelledAndCancelRoundTrip) {
  CancelMsg cm;
  cm.fragment_id = 6;
  cm.epoch = 12;
  Frame f = decode_one(encode_frame(MsgType::kCancel, encode_cancel(cm)));
  ASSERT_EQ(f.type, MsgType::kCancel);
  CancelMsg cm_out;
  ASSERT_TRUE(decode_cancel(f.payload, &cm_out));
  EXPECT_EQ(cm_out.fragment_id, 6u);
  EXPECT_EQ(cm_out.epoch, 12u);

  // The child's answer to a cancel: a cancelled attempt, no result.
  ResultMsg cd;
  cd.fragment_id = 6;
  cd.epoch = 12;
  cd.reason = FailureReason::kCancelled;
  f = decode_one(encode_frame(MsgType::kResult, encode_result(cd)));
  ASSERT_EQ(f.type, MsgType::kResult);
  ResultMsg cd_out;
  ASSERT_TRUE(decode_result(f.payload, &cd_out));
  EXPECT_EQ(cd_out.fragment_id, 6u);
  EXPECT_EQ(cd_out.epoch, 12u);
  EXPECT_EQ(cd_out.reason, FailureReason::kCancelled);
  EXPECT_TRUE(cd_out.error.empty());
}

TEST(Wire, StatsRoundTripWithCounters) {
  StatsMsg in;
  in.busy_seconds = 12.375;
  in.counters = {{"qfr.cache.hits", 13}, {"sweep.fragments.completed", -2}};
  const Frame f = decode_one(encode_frame(MsgType::kStats, encode_stats(in)));
  ASSERT_EQ(f.type, MsgType::kStats);
  StatsMsg out;
  ASSERT_TRUE(decode_stats(f.payload, &out));
  EXPECT_EQ(out.busy_seconds, in.busy_seconds);
  ASSERT_EQ(out.counters.size(), 2u);
  EXPECT_EQ(out.counters[0].first, "qfr.cache.hits");
  EXPECT_EQ(out.counters[0].second, 13);
  EXPECT_EQ(out.counters[1].second, -2);
}

TEST(Wire, HeartbeatIsAnEmptyPayloadFrame) {
  const Frame f = decode_one(encode_frame(MsgType::kHeartbeat, ""));
  EXPECT_EQ(f.type, MsgType::kHeartbeat);
  EXPECT_TRUE(f.payload.empty());
}

// ---------------------------------------------------------------------
// Streaming: frames split and coalesced arbitrarily by the socket.
// ---------------------------------------------------------------------

TEST(Wire, ByteAtATimeFeedingYieldsExactlyTheFramesSent) {
  TaskMsg t;
  t.items.push_back({1, 1, 0, 3});
  CancelMsg c;
  c.fragment_id = 3;
  c.epoch = 4;
  const std::string stream = encode_frame(MsgType::kTask, encode_task(t)) +
                             encode_frame(MsgType::kHeartbeat, "") +
                             encode_frame(MsgType::kCancel, encode_cancel(c));
  FrameReader reader;
  std::vector<MsgType> seen;
  for (const char byte : stream) {
    reader.append(std::string_view(&byte, 1));
    Frame f;
    DecodeStatus st;
    while ((st = reader.next(&f)) == DecodeStatus::kFrame)
      seen.push_back(f.type);
    ASSERT_EQ(st, DecodeStatus::kNeedMore);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], MsgType::kTask);
  EXPECT_EQ(seen[1], MsgType::kHeartbeat);
  EXPECT_EQ(seen[2], MsgType::kCancel);
}

TEST(Wire, TruncationAtEveryOffsetIsNeedMoreNeverAFrame) {
  TaskMsg t;
  t.items.push_back({9, 1, 0, 3});
  const std::string whole = encode_frame(MsgType::kTask, encode_task(t));
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    FrameReader reader;
    reader.append(std::string_view(whole).substr(0, cut));
    Frame f;
    EXPECT_EQ(reader.next(&f), DecodeStatus::kNeedMore) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------
// Corruption: every single-bit flip must be detected.
// ---------------------------------------------------------------------

TEST(Wire, EverySingleBitFlipIsRejected) {
  ResultMsg m;
  m.fragment_id = 2;
  m.epoch = 3;
  m.reason = FailureReason::kTimeout;
  m.error = "watchdog";
  const std::string whole = encode_frame(MsgType::kResult, encode_result(m));
  for (std::size_t byte = 0; byte < whole.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = whole;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      FrameReader reader;
      reader.append(damaged);
      Frame f;
      const DecodeStatus st = reader.next(&f);
      // A flip in the length field can make the frame look longer
      // (kNeedMore) — every other field is covered by magic, the version
      // and type checks, or the CRC. What can never happen is a clean
      // decode of damaged bytes.
      EXPECT_NE(st, DecodeStatus::kFrame)
          << "byte " << byte << " bit " << bit << " slipped through";
      // Fatal statuses must be sticky (buffer left untouched).
      if (st != DecodeStatus::kNeedMore) {
        EXPECT_EQ(reader.next(&f), st) << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(Wire, VersionSkewIsTypedNotFatalToTheProcess) {
  const std::string payload = encode_cancel({123, 0});
  // 2 is the previous protocol, which still had hello, failure and
  // cancelled frames.
  static_assert(kVersion == 3);
  for (const std::uint32_t v : {0u, 2u, kVersion + 1, 0xffffffffu}) {
    FrameReader reader;
    reader.append(encode_frame_versioned(v, MsgType::kCancel, payload));
    Frame f;
    EXPECT_EQ(reader.next(&f), DecodeStatus::kBadVersion) << "version " << v;
  }
  // And the current version still decodes through the same path.
  FrameReader reader;
  reader.append(encode_frame_versioned(kVersion, MsgType::kCancel, payload));
  Frame f;
  EXPECT_EQ(reader.next(&f), DecodeStatus::kFrame);
}

TEST(Wire, BadMagicUnknownTypeAndOversizedLengthAreTyped) {
  Frame f;
  {
    FrameReader reader;
    reader.append("this is not a QFRW stream at all........");
    EXPECT_EQ(reader.next(&f), DecodeStatus::kBadMagic);
  }
  // Patch the type field (bytes 8..11) to an unknown value, then fix
  // nothing else: the type check fires before the CRC. The retired
  // numbers 1 (hello), 4 (failure) and 5 (cancelled) are unknown too.
  for (const std::uint32_t bad_type : {0u, 1u, 4u, 5u, 10u, 99u}) {
    std::string frame = encode_frame(MsgType::kHeartbeat, "");
    std::memcpy(&frame[8], &bad_type, sizeof(bad_type));
    FrameReader reader;
    reader.append(frame);
    EXPECT_EQ(reader.next(&f), DecodeStatus::kBadType) << "type " << bad_type;
  }
  {
    // Patch the length field (bytes 12..19) beyond kMaxPayloadBytes.
    std::string frame = encode_frame(MsgType::kHeartbeat, "");
    const std::uint64_t huge = kMaxPayloadBytes + 1;
    std::memcpy(&frame[12], &huge, sizeof(huge));
    FrameReader reader;
    reader.append(frame);
    EXPECT_EQ(reader.next(&f), DecodeStatus::kOversized);
  }
}

// ---------------------------------------------------------------------
// Hostile payloads: length/count fields the decoders must not trust.
// ---------------------------------------------------------------------

TEST(Wire, HostileCountFieldsFailCleanly) {
  // A task payload whose item count claims ~2^61 entries but carries one.
  TaskMsg t;
  t.items.push_back({1, 1, 0, 3});
  std::string payload = encode_task(t);
  const std::uint64_t huge = ~0ull / 8;
  std::memcpy(&payload[0], &huge, sizeof(huge));
  TaskMsg out;
  EXPECT_FALSE(decode_task(payload, &out));

  // Same attack on the stats counter list and its string lengths.
  StatsMsg s;
  s.counters = {{"k", 1}};
  std::string sp = encode_stats(s);
  // The counter count is the first u64 after busy_seconds.
  std::memcpy(&sp[8], &huge, sizeof(huge));
  StatsMsg sout;
  EXPECT_FALSE(decode_stats(sp, &sout));

  // A result whose embedded Hessian header claims 2^20 x 2^20 (8 TiB):
  // rows and cols follow twelve 8-byte fields (fragment_id .. phase h1,
  // the record length, the energy).
  ResultMsg r;
  r.result = sample_result(2);
  std::string rp = encode_result(r);
  std::uint64_t rows = 0;
  std::memcpy(&rows, &rp[96], sizeof(rows));
  ASSERT_EQ(rows, r.result.hessian.rows());
  const std::uint64_t dim = 1u << 20;
  std::memcpy(&rp[96], &dim, sizeof(dim));
  std::memcpy(&rp[104], &dim, sizeof(dim));
  ResultMsg rout;
  EXPECT_FALSE(decode_result(rp, &rout));
}

TEST(Wire, OutOfRangeReuseTierIsRejected) {
  ResultMsg r;
  r.fragment_id = 1;
  r.result = sample_result(2);
  r.result.reuse_tier = engine::ReuseTier::kExact;
  std::string payload = encode_result(r);
  // The tier u64 sits after fragment_id/epoch/level/seconds/cache_hit.
  const std::uint64_t bogus = 3;  // one past kRefresh
  std::memcpy(&payload[40], &bogus, sizeof(bogus));
  ResultMsg out;
  EXPECT_FALSE(decode_result(payload, &out));
}

TEST(Wire, OutOfRangeReasonIsRejected) {
  ResultMsg r;
  r.fragment_id = 1;
  r.reason = FailureReason::kEngineError;
  std::string payload = encode_result(r);
  // With an empty error, the reason u64 is followed only by the error's
  // u64 length.
  const std::size_t at = payload.size() - 2 * sizeof(std::uint64_t);
  std::uint64_t reason = 0;
  std::memcpy(&reason, &payload[at], sizeof(reason));
  ASSERT_EQ(reason, static_cast<std::uint64_t>(FailureReason::kEngineError));
  for (const std::uint64_t bogus : {std::uint64_t{6}, ~std::uint64_t{0}}) {
    std::memcpy(&payload[at], &bogus, sizeof(bogus));
    ResultMsg out;
    EXPECT_FALSE(decode_result(payload, &out)) << "reason " << bogus;
  }
}

TEST(Wire, TruncatedPayloadsFailEveryDecoder) {
  ResultMsg r;
  r.fragment_id = 1;
  r.result = sample_result(2);
  const std::string payload = encode_result(r);
  // Cut inside the matrix data and inside the fixed-width header alike.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{7}, std::size_t{31},
        payload.size() / 2, payload.size() - 1}) {
    ResultMsg out;
    EXPECT_FALSE(decode_result(payload.substr(0, cut), &out))
        << "cut at " << cut;
  }
  StatsMsg sout;
  EXPECT_FALSE(decode_stats("", &sout));
  CancelMsg cancel_out;
  EXPECT_FALSE(decode_cancel("short", &cancel_out));
  TaskMsg tout;
  EXPECT_FALSE(decode_task("\x01", &tout));
}

// ---------------------------------------------------------------------
// Deterministic garbage fuzz: random buffers must never crash or loop.
// ---------------------------------------------------------------------

TEST(Wire, RandomGarbageNeverDecodesAndNeverHangs) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // splitmix64
  auto next_byte = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<char>(z >> 56);
  };
  for (int round = 0; round < 64; ++round) {
    std::string junk(257, '\0');
    for (char& c : junk) c = next_byte();
    FrameReader reader;
    reader.append(junk);
    Frame f;
    const DecodeStatus st = reader.next(&f);
    EXPECT_NE(st, DecodeStatus::kFrame) << "round " << round;

    // Every decoder over random payload bytes: false, never UB.
    TaskMsg t;
    decode_task(junk, &t);
    ResultMsg r;
    decode_result(junk, &r);
    CancelMsg cm;
    decode_cancel(junk, &cm);
    StatsMsg s;
    decode_stats(junk, &s);
  }
}

TEST(Wire, GarbageAfterAValidFrameStillYieldsTheFrame) {
  CancelMsg c;
  c.fragment_id = 10;
  c.epoch = 1;
  std::string stream = encode_frame(MsgType::kCancel, encode_cancel(c));
  stream += "garbage tail that is not a frame";
  FrameReader reader;
  reader.append(stream);
  Frame f;
  ASSERT_EQ(reader.next(&f), DecodeStatus::kFrame);
  EXPECT_EQ(f.type, MsgType::kCancel);
  EXPECT_EQ(reader.next(&f), DecodeStatus::kBadMagic);
}

static_assert(kHeaderBytes == 20, "header layout is wire ABI");

}  // namespace
}  // namespace qfr::runtime::wire

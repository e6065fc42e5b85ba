// SessionSpool invariants: atomic claim-rename single-use (the property
// that makes restarting a broker safe), kill/restart reconciliation,
// checksummed index self-healing, bit-rot detection, and the RAM cache
// fronting the disk. Plus MetricsRegistry unit coverage.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuits.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "gc/v3.hpp"
#include "net/reusable_service.hpp"
#include "proto/precompute.hpp"
#include "proto/reusable_io.hpp"
#include "proto/session_io.hpp"
#include "proto/v3_session.hpp"
#include "svc/metrics.hpp"
#include "svc/session_spool.hpp"

namespace maxel::svc {
namespace {

namespace fs = std::filesystem;
using crypto::Block;

class SpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("maxel_spool_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  proto::PrecomputedSession make_session(std::uint64_t seed) {
    const circuit::Circuit c =
        circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
    crypto::SystemRandom rng(Block{seed, 0x5});
    return proto::garble_session(c, gc::Scheme::kHalfGates, 2, rng);
  }

  proto::PrecomputedSessionV3 make_v3_session(std::uint64_t seed,
                                              crypto::Block delta) {
    delta.lo |= 1;  // pool correlation secret: lsb is the permute bit
    const circuit::Circuit c =
        circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
    const gc::V3Analysis an = gc::analyze_v3(c);
    crypto::SystemRandom rng(Block{seed, 0x7});
    const std::vector<std::vector<bool>> g_bits(2, std::vector<bool>(8));
    return proto::garble_session_v3(c, an, g_bits, delta, rng.next_block(),
                                    rng);
  }

  // Flips one byte at `offset` of a file in place.
  static void flip_byte(const fs::path& f, std::streamoff offset) {
    std::fstream io(f, std::ios::in | std::ios::out | std::ios::binary);
    char b;
    io.seekg(offset);
    io.get(b);
    b = static_cast<char>(b ^ 0x40);
    io.seekp(offset);
    io.put(b);
  }

  static std::string sha_hex(const std::vector<std::uint8_t>& b) {
    return crypto::Sha256::hex(crypto::Sha256::hash(b.data(), b.size()));
  }

  SpoolConfig config(std::size_t cache = 0) {
    return SpoolConfig{dir_.string(), cache, true};
  }

  fs::path dir_;
};

TEST_F(SpoolTest, PutTakeRoundTripsSessions) {
  SessionSpool spool(config());
  const proto::PrecomputedSession s = make_session(1);
  const auto want = proto::serialize_session(s);
  spool.put(make_session(1));
  EXPECT_EQ(spool.ready(), 1u);

  const auto got = spool.take();
  ASSERT_TRUE(got.has_value());
  // Byte-identical round trip through disk (same seed -> same session).
  EXPECT_EQ(proto::serialize_session(*got), want);
  EXPECT_EQ(spool.ready(), 0u);
  EXPECT_FALSE(spool.take().has_value());
}

TEST_F(SpoolTest, TakeClaimsOldestFirstAndNeverTwice) {
  SessionSpool spool(config());
  for (std::uint64_t i = 0; i < 4; ++i) spool.put(make_session(i));

  std::set<std::string> served;
  for (int i = 0; i < 4; ++i) {
    const auto s = spool.take();
    ASSERT_TRUE(s.has_value());
    // Distinct deltas witness distinct sessions: no double-serve.
    char key[64];
    std::snprintf(key, sizeof(key), "%016llx%016llx",
                  static_cast<unsigned long long>(s->delta.hi),
                  static_cast<unsigned long long>(s->delta.lo));
    EXPECT_TRUE(served.insert(key).second) << "session served twice";
  }
  EXPECT_FALSE(spool.take().has_value());
  EXPECT_EQ(spool.stats().sessions_claimed, 4u);
}

TEST_F(SpoolTest, SurvivesRestartWithoutReuse) {
  // First life: spool 3, serve 1 — then "crash" (drop the object).
  {
    SessionSpool spool(config());
    for (std::uint64_t i = 0; i < 3; ++i) spool.put(make_session(10 + i));
    ASSERT_TRUE(spool.take().has_value());
  }
  // The claim rename happened before the session bytes were handed out,
  // so a restart finds 2 ready files; the served one is gone for good.
  SessionSpool reopened(config());
  EXPECT_EQ(reopened.ready(), 2u);
  EXPECT_TRUE(reopened.take().has_value());
  EXPECT_TRUE(reopened.take().has_value());
  EXPECT_FALSE(reopened.take().has_value());
}

TEST_F(SpoolTest, PurgesClaimedLeftoversOnOpen) {
  {
    SessionSpool spool(config());
    spool.put(make_session(42));
  }
  // Simulate a crash mid-serve: the claim rename happened but the
  // process died before the unlink.
  fs::rename(dir_ / "ready" / "sess-000000000000.mxs",
             dir_ / "claimed" / "sess-000000000000.mxs");

  SessionSpool reopened(config());
  // The half-served session's labels are burned; it must never be
  // re-offered.
  EXPECT_EQ(reopened.ready(), 0u);
  EXPECT_GE(reopened.stats().purged_on_open, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "claimed" / "sess-000000000000.mxs"));
}

TEST_F(SpoolTest, RebuildsIndexWhenMissingOrCorrupt) {
  {
    SessionSpool spool(config());
    spool.put(make_session(7));
    spool.put(make_session(8));
  }
  // Index deleted: rebuilt by scanning ready/.
  fs::remove(dir_ / "spool.idx");
  {
    SessionSpool spool(config());
    EXPECT_EQ(spool.ready(), 2u);
    EXPECT_TRUE(spool.take().has_value());
  }
  // Index corrupted (checksum line mangled): also rebuilt.
  {
    std::ofstream os(dir_ / "spool.idx", std::ios::app);
    os << "garbage\n";
  }
  SessionSpool spool(config());
  EXPECT_EQ(spool.ready(), 1u);
  EXPECT_TRUE(spool.take().has_value());
}

TEST_F(SpoolTest, DetectsBitRotViaChecksum) {
  SessionSpool spool(config());
  spool.put(make_session(3));
  // Flip one byte in the middle of the stored session file.
  flip_byte(dir_ / "ready" / "sess-000000000000.mxs", 200);

  // The rotted session is destroyed and counted, never returned.
  EXPECT_FALSE(spool.take().has_value());
  EXPECT_EQ(spool.stats().corrupt_discarded, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "ready" / "sess-000000000000.mxs"));
  EXPECT_FALSE(fs::exists(dir_ / "claimed" / "sess-000000000000.mxs"));

  // A good session behind it is served.
  const auto want = proto::serialize_session(make_session(4));
  spool.put(make_session(4));
  const auto got = spool.take();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session(*got), want);
  EXPECT_EQ(spool.stats().sessions_claimed, 1u);
}

TEST_F(SpoolTest, TakeSkipsARottedSessionToTheNextReady) {
  SessionSpool spool(config());
  spool.put(make_session(5));
  spool.put(make_session(6));
  flip_byte(dir_ / "ready" / "sess-000000000000.mxs", 100);
  const auto got = spool.take();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session(*got),
            proto::serialize_session(make_session(6)));
  EXPECT_EQ(spool.stats().corrupt_discarded, 1u);
  EXPECT_EQ(spool.ready(), 0u);
}

TEST_F(SpoolTest, RamCacheServesWithoutDiskRead) {
  SessionSpool spool(config(/*cache=*/2));
  spool.put(make_session(1));
  spool.put(make_session(2));
  spool.put(make_session(3));  // beyond the cache: disk only

  ASSERT_TRUE(spool.take().has_value());  // cached
  ASSERT_TRUE(spool.take().has_value());  // cached
  ASSERT_TRUE(spool.take().has_value());  // disk read-back
  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.cache_hits, 2u);
  EXPECT_EQ(st.cache_misses, 1u);
  // Cache hits still burn the disk copy: nothing left to serve.
  EXPECT_FALSE(spool.take().has_value());
}

// ---------------------------------------------------------------------------
// Protocol-v3 lane

TEST_F(SpoolTest, V3LaneRoundTripsAndStaysSeparate) {
  SessionSpool spool(config(/*cache=*/2));
  const Block delta{0xD317A, 0xBEEF};
  const proto::PrecomputedSessionV3 s = make_v3_session(1, delta);
  const auto want = proto::serialize_session_v3(s);
  spool.put_v3(s);
  spool.put(make_session(1));

  EXPECT_EQ(spool.ready(), 1u);     // v2 count excludes the v3 lane
  EXPECT_EQ(spool.ready_v3(), 1u);

  // take() must never surface a v3 session, and vice versa.
  const auto v2 = spool.take();
  ASSERT_TRUE(v2.has_value());
  EXPECT_FALSE(spool.take().has_value());

  const auto got = spool.take_v3(s.pool_lineage);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got), want);  // disk round trip
  EXPECT_FALSE(spool.take_v3(s.pool_lineage).has_value());

  const SpoolStats st = spool.stats();
  EXPECT_EQ(st.v3_spooled, 1u);
  EXPECT_EQ(st.v3_claimed, 1u);
  EXPECT_EQ(st.v3_lineage_discarded, 0u);
}

TEST_F(SpoolTest, V3LaneSurvivesRestartAndBurnsForeignLineage) {
  const Block delta{0x11, 0x22};
  std::uint64_t lineage = 0;
  {
    SessionSpool spool(config());
    for (std::uint64_t i = 0; i < 3; ++i) {
      const auto s = make_v3_session(20 + i, delta);
      lineage = s.pool_lineage;
      spool.put_v3(s);
    }
  }
  // Same lineage after restart: the inherited stock serves normally
  // (the index's lineage column survived the round trip).
  {
    SessionSpool spool(config());
    EXPECT_EQ(spool.ready_v3(), 3u);
    ASSERT_TRUE(spool.take_v3(lineage).has_value());
  }
  // Foreign lineage (a new broker's delta): every inherited session is
  // burned — claimed and destroyed, never returned.
  SessionSpool spool(config());
  EXPECT_EQ(spool.ready_v3(), 2u);
  EXPECT_FALSE(spool.take_v3(lineage + 1).has_value());
  EXPECT_EQ(spool.stats().v3_lineage_discarded, 2u);
  EXPECT_EQ(spool.ready_v3(), 0u);
  // And the burn is durable: nothing reappears on the next open.
  SessionSpool reopened(config());
  EXPECT_EQ(reopened.ready_v3(), 0u);
}

TEST_F(SpoolTest, V3LaneNeverReturnsABitRottedSession) {
  SessionSpool spool(config());
  const auto s = make_v3_session(30, Block{0x5, 0x6});
  spool.put_v3(s);
  flip_byte(dir_ / "ready" / "v3ss-000000000000.mx3", 64);

  EXPECT_FALSE(spool.take_v3(s.pool_lineage).has_value());
  EXPECT_EQ(spool.stats().corrupt_discarded, 1u);
  EXPECT_EQ(spool.stats().v3_claimed, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "ready" / "v3ss-000000000000.mx3"));
  EXPECT_FALSE(fs::exists(dir_ / "claimed" / "v3ss-000000000000.mx3"));

  // A good session put after it is served.
  const auto good = make_v3_session(31, Block{0x5, 0x6});
  spool.put_v3(good);
  const auto got = spool.take_v3(good.pool_lineage);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got),
            proto::serialize_session_v3(good));
}

TEST_F(SpoolTest, V3LineageIsRecoveredWhenTheIndexIsLost) {
  const auto s = make_v3_session(40, Block{0x7, 0x8});
  {
    SessionSpool spool(config());
    spool.put_v3(s);
    spool.put_v3(make_v3_session(41, Block{0x7, 0x8}));
  }
  // The second file no longer parses: its header is gone.
  {
    std::ofstream os(dir_ / "ready" / "v3ss-000000000001.mx3",
                     std::ios::binary | std::ios::trunc);
    os << "not a v3 session";
  }
  fs::remove(dir_ / "spool.idx");

  SessionSpool spool(config());
  // The lineage column came back from the file itself; the unparsable
  // file was destroyed on open rather than ever offered.
  EXPECT_EQ(spool.ready_v3(), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "ready" / "v3ss-000000000001.mx3"));
  const auto got = spool.take_v3(s.pool_lineage);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got), proto::serialize_session_v3(s));
  EXPECT_EQ(spool.stats().v3_lineage_discarded, 0u);
}

// ---------------------------------------------------------------------------
// On-disk format pin: file names, index lines and the SUM line. A spool
// written by an older build must keep opening and serving every lane.

TEST_F(SpoolTest, IndexFormatIsPinnedAndReopensEveryLane) {
  const proto::PrecomputedSession v2 = make_session(50);
  const proto::PrecomputedSessionV3 v3 = make_v3_session(51, Block{0x9, 0xA});
  const std::vector<std::uint8_t> v2_bytes = proto::serialize_session(v2);
  const std::vector<std::uint8_t> v3_bytes = proto::serialize_session_v3(v3);
  const std::vector<std::uint8_t> blob(40, 0x5C);
  {
    SessionSpool spool(config());
    spool.put(make_session(50));
    spool.put_v3(v3);
    spool.put_reusable("0123456789abcdef-8", blob);
    spool.add_reusable_evaluations("0123456789abcdef-8", 7);
  }

  const std::string body =
      "MXSPOOL1\n"
      "sess-000000000000.mxs " + std::to_string(v2_bytes.size()) + " " +
      sha_hex(v2_bytes) + "\n"
      "v3ss-000000000001.mx3 " + std::to_string(v3_bytes.size()) + " " +
      sha_hex(v3_bytes) + " " + std::to_string(v3.pool_lineage) + "\n"
      "reus-000000000002.mxr " + std::to_string(blob.size()) + " " +
      sha_hex(blob) + " 0123456789abcdef-8 7\n";
  const std::string want =
      body + "SUM " +
      sha_hex(std::vector<std::uint8_t>(body.begin(), body.end())) + "\n";
  std::ifstream is(dir_ / "spool.idx", std::ios::binary);
  const std::string idx((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(idx, want);

  SessionSpool spool(config());
  EXPECT_EQ(spool.ready(), 1u);
  EXPECT_EQ(spool.ready_v3(), 1u);
  const auto got_v2 = spool.take();
  ASSERT_TRUE(got_v2.has_value());
  EXPECT_EQ(proto::serialize_session(*got_v2), v2_bytes);
  const auto got_v3 = spool.take_v3(v3.pool_lineage);
  ASSERT_TRUE(got_v3.has_value());
  EXPECT_EQ(proto::serialize_session_v3(*got_v3), v3_bytes);
  EXPECT_EQ(spool.fetch_reusable("0123456789abcdef-8"), blob);
  EXPECT_EQ(spool.stats().reusable_evaluations, 7u);
}

// ---------------------------------------------------------------------------
// Reusable lane: keyed garble-once artifacts, fetched without claiming.

TEST_F(SpoolTest, ReusableLaneFetchesWithoutClaimingAndStaysSeparate) {
  SessionSpool spool(config());
  spool.put(make_session(1));
  const auto s3 = make_v3_session(2, Block{0x1, 0x3});
  spool.put_v3(s3);
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  spool.put_reusable("abcd-8", blob);

  // Fetch is idempotent: the artifact never moves to claimed/ and both
  // single-use lanes are blind to it.
  EXPECT_EQ(spool.fetch_reusable("abcd-8"), blob);
  EXPECT_EQ(spool.fetch_reusable("abcd-8"), blob);
  EXPECT_FALSE(spool.fetch_reusable("other-key").has_value());
  ASSERT_TRUE(spool.take().has_value());
  EXPECT_FALSE(spool.take().has_value());
  ASSERT_TRUE(spool.take_v3(s3.pool_lineage).has_value());
  EXPECT_FALSE(spool.take_v3(s3.pool_lineage).has_value());
  EXPECT_EQ(spool.stats().reusable_ready, 1u);
  EXPECT_EQ(spool.stats().reusable_spooled, 1u);
}

TEST_F(SpoolTest, ReusableEvaluationCounterPersistsAcrossRestart) {
  const circuit::Circuit c =
      circuit::make_mac_circuit(circuit::MacOptions{8, 8, true});
  crypto::SystemRandom rng(Block{0x77, 0x9});
  const gc::ReusableCircuit rc = net::garble_reusable(c, 8, rng);
  const std::string key = reusable_artifact_key(rc.view.fingerprint, 8);
  {
    SessionSpool spool(config());
    spool.put_reusable(key, proto::serialize_reusable(rc));
    spool.add_reusable_evaluations(key, 100);
    spool.add_reusable_evaluations(key, 28);
  }
  {
    SessionSpool spool(config());
    const auto entries = spool.reusable_entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, key);
    EXPECT_EQ(entries[0].evaluations, 128u);
    EXPECT_EQ(spool.stats().reusable_evaluations, 128u);
  }
  // Losing the index costs the counter but not the artifact: the key is
  // recovered by parsing the blob itself.
  fs::remove(dir_ / "spool.idx");
  SessionSpool rebuilt(config());
  const auto entries = rebuilt.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, key);
  EXPECT_EQ(entries[0].evaluations, 0u);
  ASSERT_TRUE(rebuilt.fetch_reusable(key).has_value());
}

TEST_F(SpoolTest, ReusableFetchDestroysBitRottedArtifact) {
  SessionSpool spool(config());
  spool.put_reusable("feed-16", std::vector<std::uint8_t>(64, 0xAB));
  for (const auto& e : fs::directory_iterator(dir_ / "ready")) {
    std::ofstream os(e.path(), std::ios::binary | std::ios::trunc);
    os << "tampered";
  }
  EXPECT_FALSE(spool.fetch_reusable("feed-16").has_value());
  EXPECT_EQ(spool.stats().reusable_corrupt_discarded, 1u);
  EXPECT_EQ(spool.stats().reusable_ready, 0u);
  // The discard is durable: nothing resurfaces on the next open.
  spool.put(make_session(9));  // keep the dir non-trivial
  SessionSpool reopened(config());
  EXPECT_FALSE(reopened.fetch_reusable("feed-16").has_value());
}

TEST_F(SpoolTest, ReusablePutReplacesPerKeyAndPurgeRetires) {
  SessionSpool spool(config());
  spool.put_reusable("k-8", std::vector<std::uint8_t>(32, 0x01));
  spool.add_reusable_evaluations("k-8", 50);
  spool.put_reusable("k-8", std::vector<std::uint8_t>(48, 0x02));
  auto entries = spool.reusable_entries();
  ASSERT_EQ(entries.size(), 1u);  // replaced, not accumulated
  EXPECT_EQ(entries[0].bytes, 48u);
  EXPECT_EQ(entries[0].evaluations, 0u);  // fresh artifact, fresh count
  spool.put_reusable("k2-16", std::vector<std::uint8_t>(16, 0x03));
  EXPECT_EQ(spool.purge_reusable(), 2u);
  EXPECT_TRUE(spool.reusable_entries().empty());
  EXPECT_EQ(spool.stats().reusable_purged, 2u);
  EXPECT_FALSE(spool.fetch_reusable("k-8").has_value());
  SessionSpool reopened(config());
  EXPECT_TRUE(reopened.reusable_entries().empty());
}

TEST(ReusableKey, EncodesFingerprintPrefixAndBits) {
  std::array<std::uint8_t, 32> fp{};
  fp[0] = 0xDE;
  fp[1] = 0xAD;
  fp[7] = 0x01;
  EXPECT_EQ(reusable_artifact_key(fp, 16), "dead000000000001-16");
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, CountersGaugesAccumulate) {
  MetricsRegistry reg;
  reg.counter("hits").inc();
  reg.counter("hits").inc(4);
  reg.gauge("depth").set(7);
  reg.gauge("depth").add(-2);
  EXPECT_EQ(reg.counter("hits").value(), 5u);
  EXPECT_EQ(reg.gauge("depth").value(), 5);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"hits\":5"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":5"), std::string::npos);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 90; ++i) h.observe(0.001);  // ~1 ms
  for (int i = 0; i < 10; ++i) h.observe(0.1);    // ~100 ms
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.sum_seconds, 90 * 0.001 + 10 * 0.1, 1e-3);
  // p50 lands in the ~1 ms bucket, p99 in the ~100 ms bucket.
  EXPECT_LT(s.quantile_seconds(0.50), 0.01);
  EXPECT_GT(s.quantile_seconds(0.99), 0.05);
  EXPECT_NE(reg.to_json().find("\"lat\":{\"count\":100"), std::string::npos);
}

TEST(Metrics, HistogramIgnoresGarbageSamples) {
  Histogram h;
  h.observe(-1.0);
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.snapshot().count, 0u);
}

}  // namespace
}  // namespace maxel::svc

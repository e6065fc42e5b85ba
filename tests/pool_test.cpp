// GcCorePool and the multi-core garbling engine: sharding/coverage,
// deterministic per-core entropy, exception propagation, and the
// headline property — parallel_matmul is bit-identical to the serial
// simulator path at every core count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/gc_core_pool.hpp"
#include "core/matmul.hpp"
#include "crypto/prg.hpp"

namespace maxel::core {
namespace {

using crypto::Block;

TEST(GcCorePool, CoversEveryItemExactlyOnce) {
  GcCorePool pool(4, Block{1, 2});
  EXPECT_EQ(pool.cores(), 4u);

  constexpr std::size_t kN = 103;  // not divisible by 4
  std::vector<std::atomic<int>> hits(kN);
  std::vector<std::atomic<int>> core_of(kN);
  pool.parallel_for(kN, [&](std::size_t item, std::size_t core) {
    hits[item].fetch_add(1);
    core_of[item].store(static_cast<int>(core));
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;

  // Static contiguous sharding: core of item i is non-decreasing in i.
  for (std::size_t i = 1; i < kN; ++i)
    EXPECT_LE(core_of[i - 1].load(), core_of[i].load());
}

TEST(GcCorePool, ZeroCoresPicksHardwareConcurrency) {
  GcCorePool pool(0, Block{3, 4});
  EXPECT_GE(pool.cores(), 1u);
}

TEST(GcCorePool, PerCoreRngIsDeterministicInRootSeed) {
  GcCorePool a(3, Block{7, 9});
  GcCorePool b(3, Block{7, 9});
  GcCorePool c(3, Block{7, 10});
  for (std::size_t core = 0; core < 3; ++core) {
    const Block va = a.core_rng(core).next_block();
    EXPECT_EQ(va, b.core_rng(core).next_block());
    EXPECT_NE(va, c.core_rng(core).next_block());
  }
  // Streams of different cores are distinct.
  GcCorePool d(2, Block{7, 9});
  EXPECT_NE(d.core_rng(0).next_block(), d.core_rng(1).next_block());
}

TEST(GcCorePool, GrowingThePoolKeepsExistingCoreSeeds) {
  GcCorePool small(2, Block{21, 22});
  GcCorePool big(5, Block{21, 22});
  for (std::size_t core = 0; core < 2; ++core)
    EXPECT_EQ(small.core_rng(core).next_block(),
              big.core_rng(core).next_block());
}

TEST(GcCorePool, PropagatesWorkerExceptions) {
  GcCorePool pool(2, Block{5, 5});
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t item, std::size_t) {
                          if (item == 6) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Pool survives the failed epoch and stays usable.
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

// The tentpole determinism property: for fixed inputs, parallel_matmul
// with 1, 2, and 8 cores produces bit-identical products, all verified,
// and equal to the serial secure_matmul_on_sim product.
TEST(ParallelMatMul, BitIdenticalAcrossCoreCountsAndVsSerial) {
  const std::size_t b = 8, n = 3, m = 4, p = 3;
  crypto::Prg prg(Block{2024, 5});
  std::vector<std::vector<std::uint64_t>> a(n, std::vector<std::uint64_t>(m));
  std::vector<std::vector<std::uint64_t>> x(m, std::vector<std::uint64_t>(p));
  for (auto& row : a)
    for (auto& v : row) v = prg.next_u64();
  for (auto& row : x)
    for (auto& v : row) v = prg.next_u64();

  crypto::SystemRandom serial_rng(Block{1, 1});
  const SecureMatMulResult serial = secure_matmul_on_sim(a, x, b, serial_rng);
  ASSERT_TRUE(serial.verified);

  for (const std::size_t cores : {1u, 2u, 8u}) {
    const ParallelMatMulResult par =
        parallel_matmul(a, x, b, Block{99, 100}, cores);
    EXPECT_TRUE(par.verified) << cores << " cores";
    EXPECT_EQ(par.cores, cores);
    EXPECT_EQ(par.product, serial.product) << cores << " cores";
    // Work accounting is sharding-invariant: same tables/cycles totals
    // as the serial run, just split across per-core ledgers.
    EXPECT_EQ(par.tables, serial.tables);
    EXPECT_EQ(par.cycles, serial.cycles);
    ASSERT_EQ(par.core_stats.size(), cores);
    std::uint64_t table_sum = 0;
    for (const auto& st : par.core_stats) table_sum += st.tables;
    EXPECT_EQ(table_sum, par.tables);
  }
}

// Same root seed + same core count => identical per-core label streams,
// hence an identical run end to end (stats included).
TEST(ParallelMatMul, ReproducibleForFixedSeedAndCores) {
  const std::size_t b = 8;
  std::vector<std::vector<std::uint64_t>> a = {{3, 250}, {77, 19}};
  std::vector<std::vector<std::uint64_t>> x = {{5, 1}, {200, 131}};

  const ParallelMatMulResult r1 = parallel_matmul(a, x, b, Block{8, 8}, 2);
  const ParallelMatMulResult r2 = parallel_matmul(a, x, b, Block{8, 8}, 2);
  EXPECT_EQ(r1.product, r2.product);
  ASSERT_TRUE(r1.verified && r2.verified);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r1.core_stats[c].tables, r2.core_stats[c].tables);
    EXPECT_EQ(r1.core_stats[c].labels_generated,
              r2.core_stats[c].labels_generated);
  }
}

// Each core's ledger folds every cell it ran: with several cells per
// core, counts are sums and the RNG peak and gated fraction are those of
// the cells (a cycle-weighted mean of equal fractions is that fraction).
TEST(ParallelMatMul, CoreLedgerFoldsEveryCell) {
  const std::size_t b = 8, n = 3, m = 2, p = 3;  // 9 cells on 2 cores
  crypto::Prg prg(Block{2025, 6});
  std::vector<std::vector<std::uint64_t>> a(n, std::vector<std::uint64_t>(m));
  std::vector<std::vector<std::uint64_t>> x(m, std::vector<std::uint64_t>(p));
  for (auto& row : a)
    for (auto& v : row) v = prg.next_u64();
  for (auto& row : x)
    for (auto& v : row) v = prg.next_u64();
  const ParallelMatMulResult par = parallel_matmul(a, x, b, Block{5, 5}, 2);
  ASSERT_TRUE(par.verified);

  MaxeleratorConfig cfg;
  cfg.bit_width = b;
  crypto::SystemRandom rng(Block{5, 6});
  MaxeleratorSim one(cfg, rng);
  one.run(m);
  const MaxeleratorStats& cell = one.stats();

  std::uint64_t rounds = 0;
  for (const auto& st : par.core_stats) {
    ASSERT_EQ(st.rounds % m, 0u);
    const std::uint64_t cells = st.rounds / m;
    EXPECT_GE(cells, 2u);
    rounds += st.rounds;
    EXPECT_EQ(st.total_cycles, cells * cell.total_cycles);
    EXPECT_EQ(st.rng_bits, cells * cell.rng_bits);
    EXPECT_EQ(st.rng_peak_bits_per_cycle, cell.rng_peak_bits_per_cycle);
    EXPECT_NEAR(st.rng_gated_fraction, cell.rng_gated_fraction, 1e-12);
  }
  EXPECT_EQ(rounds, n * m * p);
}

// The fold itself: peaks take the max, the gated fraction is weighted
// by cycles, counts add — whichever run comes first.
TEST(MaxeleratorStatsLedger, AccumulateTakesPeaksAndWeightsByCycles) {
  MaxeleratorStats short_run;
  short_run.bit_width = 8;
  short_run.total_cycles = 100;
  short_run.rng_gated_fraction = 0.5;
  short_run.rng_peak_bits_per_cycle = 256;
  short_run.memory_peak_fill = 3;
  short_run.tables = 10;
  MaxeleratorStats long_run = short_run;
  long_run.total_cycles = 300;
  long_run.rng_gated_fraction = 0.1;
  long_run.rng_peak_bits_per_cycle = 512;
  long_run.memory_peak_fill = 9;
  long_run.tables = 30;

  for (const bool short_first : {true, false}) {
    MaxeleratorStats acc;
    acc.accumulate(short_first ? short_run : long_run);
    acc.accumulate(short_first ? long_run : short_run);
    EXPECT_EQ(acc.total_cycles, 400u);
    EXPECT_EQ(acc.tables, 40u);
    EXPECT_EQ(acc.rng_peak_bits_per_cycle, 512u);
    EXPECT_EQ(acc.memory_peak_fill, 9u);
    EXPECT_NEAR(acc.rng_gated_fraction, (0.5 * 100 + 0.1 * 300) / 400, 1e-12);
  }
}

TEST(ParallelMatMul, ShapeValidation) {
  std::vector<std::vector<std::uint64_t>> a = {{1, 2}};
  std::vector<std::vector<std::uint64_t>> bad = {{1}};
  EXPECT_THROW((void)parallel_matmul(a, bad, 8, Block{0, 1}, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace maxel::core

// Collectives layer tests: the N-node correctness matrix ({3,4,7} ranks ×
// {serial,threaded} progression × clean/chaos fault profiles), byte-exact
// reduction against a scalar reference, barrier semantics, failure
// semantics (a dead rail degrades a collective, a dead gate fails it —
// neither hangs), and the guarantee that collective segments flow through
// the ordinary strategy backlog (multi-rail striping, no special-casing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "coll/barrier.hpp"
#include "coll/bcast.hpp"
#include "coll/communicator.hpp"
#include "coll/reduce.hpp"
#include "core/platform.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace nmad;
using namespace nmad::core;

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = std::byte(rng.next() & 0xff);
  return out;
}

std::vector<std::uint64_t> random_u64(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.next();
  return out;
}

/// The PR-3 acceptance fault profile: 1% drop, 1% duplicate, 0.5% corrupt.
drv::ChaosConfig acceptance_chaos() {
  drv::FaultProfile profile;
  profile.drop = 0.01;
  profile.duplicate = 0.01;
  profile.corrupt = 0.005;
  return drv::ChaosConfig::uniform(profile, /*window=*/3);
}

/// N communicating ranks over a MultiNodePlatform, one coll communicator
/// per rank, all driven from this (single) test thread.
struct CollWorld {
  MultiNodePlatform platform;
  std::vector<coll::Communicator> comms;
  coll::DriveHooks hooks;

  static MultiNodeConfig make_config(std::size_t ranks, ProgressMode mode,
                                     bool chaos, const char* strategy) {
    MultiNodeConfig cfg;
    cfg.nodes = ranks;
    cfg.strategy = strategy;
    cfg.progress_mode = mode;
    if (chaos) {
      cfg.chaos = acceptance_chaos();
      cfg.chaos_seed = 40 + ranks;
      // Faults require the reliability layer, exactly like PR 3's soaks.
      cfg.strat_cfg.reliability.ack_enabled = true;
    }
    return cfg;
  }

  CollWorld(std::size_t ranks, ProgressMode mode, bool chaos,
            const char* strategy = "aggreg_greedy",
            coll::CollConfig ccfg = {.segment_bytes = 64 * 1024})
      : platform(make_config(ranks, mode, chaos, strategy)) {
    comms.reserve(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      comms.push_back(coll::make_communicator(platform, r, ccfg));
    }
    hooks = coll::hooks_for(platform);
  }

  [[nodiscard]] std::size_t size() const { return comms.size(); }
};

// --- correctness matrix ------------------------------------------------------

struct MatrixParam {
  std::size_t ranks;
  ProgressMode mode;
  bool chaos;
};

class CollMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(CollMatrix, BcastReduceAllreduceBarrierByteCorrect) {
  const auto [ranks, mode, chaos] = GetParam();
  CollWorld w(ranks, mode, chaos);

  // Broadcast: 300 KB from a non-zero root — several segments at the 64 KB
  // test segment size, each striped across the rails by the strategy.
  const std::size_t kBcastBytes = 300 * 1024;
  const auto truth = random_bytes(kBcastBytes, 7 * ranks);
  std::vector<std::vector<std::byte>> bufs(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    bufs[r] = r == 1 ? truth : std::vector<std::byte>(kBcastBytes);
  }

  // Reduce (sum, root 0) and allreduce (min): uint64 elements, so the
  // scalar reference is byte-exact regardless of combine order.
  const std::size_t kElems = 96 * 1024 / sizeof(std::uint64_t) + 3;
  std::vector<std::vector<std::uint64_t>> contrib(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    contrib[r] = random_u64(kElems, 100 * ranks + r);
  }
  std::vector<std::uint64_t> sum_ref(kElems, 0), min_ref(kElems, ~0ull);
  for (std::size_t r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      sum_ref[i] += contrib[r][i];
      min_ref[i] = std::min(min_ref[i], contrib[r][i]);
    }
  }
  std::vector<std::uint64_t> sum_out(kElems);
  std::vector<std::vector<std::uint64_t>> min_out(
      ranks, std::vector<std::uint64_t>(kElems));

  // Every rank posts all four collectives up front: concurrent instances
  // must not cross-match (per-instance tag streams).
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < ranks; ++r) {
    ops.push_back(w.comms[r].ibcast(bufs[r], /*root=*/1));
    ops.push_back(w.comms[r].ireduce<std::uint64_t>(
        contrib[r], r == 0 ? std::span<std::uint64_t>(sum_out)
                           : std::span<std::uint64_t>{},
        /*root=*/0, coll::ReduceKind::kSum));
    ops.push_back(w.comms[r].iallreduce<std::uint64_t>(contrib[r], min_out[r],
                                                       coll::ReduceKind::kMin));
    ops.push_back(w.comms[r].ibarrier());
  }
  ASSERT_TRUE(coll::wait_all(ops, w.hooks));

  for (std::size_t r = 0; r < ranks; ++r) {
    EXPECT_EQ(bufs[r], truth) << "bcast rank " << r;
    EXPECT_EQ(min_out[r], min_ref) << "allreduce rank " << r;
  }
  EXPECT_EQ(sum_out, sum_ref);
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& p = info.param;
  return std::to_string(p.ranks) + "ranks_" +
         (p.mode == ProgressMode::kThreaded ? "threaded" : "serial") +
         (p.chaos ? "_chaos" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CollMatrix,
    ::testing::Values(
        MatrixParam{3, ProgressMode::kSerial, false},
        MatrixParam{4, ProgressMode::kSerial, false},
        MatrixParam{7, ProgressMode::kSerial, false},
        MatrixParam{3, ProgressMode::kThreaded, false},
        MatrixParam{4, ProgressMode::kThreaded, false},
        MatrixParam{7, ProgressMode::kThreaded, false},
        MatrixParam{3, ProgressMode::kSerial, true},
        MatrixParam{4, ProgressMode::kSerial, true},
        MatrixParam{7, ProgressMode::kSerial, true},
        MatrixParam{3, ProgressMode::kThreaded, true},
        MatrixParam{4, ProgressMode::kThreaded, true},
        MatrixParam{7, ProgressMode::kThreaded, true}),
    matrix_name);

// --- heterogeneous-topology matrix -------------------------------------------

/// Two hosts with fast intra-host rails (Myri-10G + Quadrics) and slow
/// cross-host ones (GigE + Myrinet-2000): the world the hierarchy trees
/// exist for. Each parameter point runs the full collective set twice —
/// hierarchical and flat — over identical inputs and asserts the results
/// are byte-identical, so tree composition can never change semantics.
struct HeteroParam {
  std::size_t ranks;  // split onto two hosts: first half + remainder
  ProgressMode mode;
  bool chaos;
};

class CollHetero : public ::testing::TestWithParam<HeteroParam> {
 protected:
  static MultiNodeConfig make_config(const HeteroParam& p, bool hierarchical) {
    MultiNodeConfig cfg;
    cfg.nodes = p.ranks;
    cfg.strategy = "aggreg_greedy";
    cfg.progress_mode = p.mode;
    cfg.links = {netmodel::gige_tcp(), netmodel::myrinet2000_gm2()};
    cfg.intra_host_links = {netmodel::myri10g(), netmodel::quadrics_qm500()};
    cfg.hosts.assign(p.ranks, 1);
    for (std::size_t r = 0; r < p.ranks / 2; ++r) cfg.hosts[r] = 0;
    if (p.chaos) {
      cfg.chaos = acceptance_chaos();
      cfg.chaos_seed = 90 + p.ranks + (hierarchical ? 7 : 0);
      cfg.strat_cfg.reliability.ack_enabled = true;
    }
    return cfg;
  }

  /// Bcast + reduce + allreduce + barrier on every rank, returning
  /// (bcast buffers, reduce sum at root, allreduce outputs) for the
  /// hier-vs-flat byte comparison.
  struct Results {
    std::vector<std::vector<std::byte>> bcast;
    std::vector<std::uint64_t> sum;
    std::vector<std::vector<std::uint64_t>> min;
  };

  static Results run(const HeteroParam& p, bool hierarchical) {
    const std::size_t ranks = p.ranks;
    MultiNodePlatform platform(make_config(p, hierarchical));
    coll::CollConfig ccfg{.segment_bytes = 64 * 1024};
    ccfg.hierarchical = hierarchical;
    std::vector<coll::Communicator> comms;
    for (std::size_t r = 0; r < ranks; ++r) {
      comms.push_back(coll::make_communicator(platform, r, ccfg));
    }

    Results out;
    const std::size_t kBcastBytes = 200 * 1024;
    const auto truth = random_bytes(kBcastBytes, 19 * ranks);
    out.bcast.resize(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      out.bcast[r] = r == 1 ? truth : std::vector<std::byte>(kBcastBytes);
    }
    const std::size_t kElems = 64 * 1024 / sizeof(std::uint64_t) + 5;
    std::vector<std::vector<std::uint64_t>> contrib(ranks);
    for (std::size_t r = 0; r < ranks; ++r) {
      contrib[r] = random_u64(kElems, 500 * ranks + r);
    }
    out.sum.resize(kElems);
    out.min.assign(ranks, std::vector<std::uint64_t>(kElems));

    std::vector<coll::CollHandle> ops;
    for (std::size_t r = 0; r < ranks; ++r) {
      ops.push_back(comms[r].ibcast(out.bcast[r], /*root=*/1));
      ops.push_back(comms[r].ireduce<std::uint64_t>(
          contrib[r], r == 0 ? std::span<std::uint64_t>(out.sum)
                             : std::span<std::uint64_t>{},
          /*root=*/0, coll::ReduceKind::kSum));
      ops.push_back(comms[r].iallreduce<std::uint64_t>(
          contrib[r], out.min[r], coll::ReduceKind::kMin));
      ops.push_back(comms[r].ibarrier());
    }
    EXPECT_TRUE(coll::wait_all(ops, coll::hooks_for(platform)));

    // The hierarchical run must actually have used two levels (the split
    // leaves at least 2 ranks per host at every matrix size).
    if constexpr (obs::kMetricsEnabled) {
      const auto& m = comms[0].metrics();
      EXPECT_EQ(m.levels.value(), hierarchical ? 2 : 1);
      if (hierarchical) {
        EXPECT_GT(m.level_inter_sends.value(), 0u);
      }
    }
    return out;
  }
};

TEST_P(CollHetero, HierAndFlatAreByteIdentical) {
  const auto p = GetParam();
  const Results hier = run(p, /*hierarchical=*/true);
  const Results flat = run(p, /*hierarchical=*/false);
  // uint64 sum/min references are order-independent, so both trees must
  // produce bit-equal outputs — the composition is semantically invisible.
  for (std::size_t r = 0; r < p.ranks; ++r) {
    EXPECT_EQ(hier.bcast[r], flat.bcast[r]) << "bcast rank " << r;
    EXPECT_EQ(hier.min[r], flat.min[r]) << "allreduce rank " << r;
  }
  EXPECT_EQ(hier.sum, flat.sum);
}

std::string hetero_name(const ::testing::TestParamInfo<HeteroParam>& info) {
  const auto& p = info.param;
  return std::to_string(p.ranks) + "ranks_" +
         (p.mode == ProgressMode::kThreaded ? "threaded" : "serial") +
         (p.chaos ? "_chaos" : "_clean");
}

INSTANTIATE_TEST_SUITE_P(
    TwoHosts, CollHetero,
    ::testing::Values(
        HeteroParam{6, ProgressMode::kSerial, false},
        HeteroParam{7, ProgressMode::kSerial, false},
        HeteroParam{6, ProgressMode::kThreaded, false},
        HeteroParam{7, ProgressMode::kThreaded, false},
        HeteroParam{6, ProgressMode::kSerial, true},
        HeteroParam{7, ProgressMode::kSerial, true},
        HeteroParam{6, ProgressMode::kThreaded, true},
        HeteroParam{7, ProgressMode::kThreaded, true}),
    hetero_name);

TEST(CollHetero, DeadRailMidHierarchicalBcastFailsOver) {
  // 6 ranks on two hosts, two rails per edge, zero-probability chaos so
  // links can be killed with reliability on. Killing one rail of the slow
  // inter-host leader edge AND one fast intra-host rail mid-collective
  // must degrade, not break, the hierarchical broadcast.
  const std::size_t ranks = 6;
  MultiNodeConfig cfg;
  cfg.nodes = ranks;
  cfg.progress_mode = ProgressMode::kSerial;
  cfg.links = {netmodel::gige_tcp(), netmodel::myrinet2000_gm2()};
  cfg.intra_host_links = {netmodel::myri10g(), netmodel::quadrics_qm500()};
  cfg.hosts = {0, 0, 0, 1, 1, 1};
  cfg.chaos = drv::ChaosConfig::uniform(drv::FaultProfile{}, /*window=*/1);
  cfg.strat_cfg.reliability.ack_enabled = true;
  MultiNodePlatform platform(cfg);
  std::vector<coll::Communicator> comms;
  for (std::size_t r = 0; r < ranks; ++r) {
    comms.push_back(coll::make_communicator(platform, r));
  }

  const auto truth = random_bytes(1 << 20, 33);
  std::vector<std::vector<std::byte>> bufs(ranks,
                                           std::vector<std::byte>(truth.size()));
  bufs[0] = truth;
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < ranks; ++r) {
    ops.push_back(comms[r].ibcast(bufs[r], /*root=*/0));
  }
  // Root 0 leads host 0; rank 3 leads host 1: {0,3} is the only
  // inter-domain edge of the tree. Kill its rail 0 plus a fast rail.
  platform.kill_link(0, 3, 0);
  platform.kill_link(0, 1, 0);
  ASSERT_TRUE(coll::wait_all(ops, coll::hooks_for(platform)));
  for (std::size_t r = 1; r < ranks; ++r) {
    EXPECT_EQ(bufs[r], truth) << "rank " << r;
  }
}

// --- algorithm shape ---------------------------------------------------------

TEST(CollTree, BinomialShapeIsConsistent) {
  for (std::size_t size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u}) {
    for (std::size_t root = 0; root < size; ++root) {
      std::size_t edges = 0;
      for (std::size_t rank = 0; rank < size; ++rank) {
        const auto shape = coll::binomial_tree(rank, root, size);
        if (rank == root) {
          EXPECT_EQ(shape.parent, coll::TreeShape::kNoParent);
        } else {
          ASSERT_NE(shape.parent, coll::TreeShape::kNoParent);
          // Our parent must list us as one of its children.
          const auto parent = coll::binomial_tree(shape.parent, root, size);
          EXPECT_NE(std::find(parent.children.begin(), parent.children.end(),
                              rank),
                    parent.children.end())
              << "size " << size << " root " << root << " rank " << rank;
        }
        edges += shape.children.size();
      }
      EXPECT_EQ(edges, size - 1) << "size " << size << " root " << root;
    }
  }
}

TEST(CollTree, SegmentBoundsKeepWholeElements) {
  // 100 is not a multiple of 16: the segment size must round down to 96 so
  // no combine ever sees half an element.
  const auto bounds = coll::segment_bounds(/*total=*/1024, /*segment_bytes=*/100,
                                           /*elem_size=*/16);
  std::size_t covered = 0;
  for (auto [off, len] : bounds) {
    EXPECT_EQ(off, covered);
    EXPECT_EQ(len % 16, 0u);
    EXPECT_LE(len, 96u);
    covered += len;
  }
  EXPECT_EQ(covered, 1024u);

  // segment_bytes below one element: a segment still carries a whole element.
  for (auto [off, len] : coll::segment_bounds(64, 10, 16)) EXPECT_EQ(len, 16u);

  // Zero-length payloads still produce one (empty) segment so the tree
  // synchronizes.
  EXPECT_EQ(coll::segment_bounds(0, 4096, 1).size(), 1u);
}

// --- barrier semantics -------------------------------------------------------

TEST(CollBarrier, HoldsUntilLastRankEnters) {
  CollWorld w(4, ProgressMode::kSerial, /*chaos=*/false);
  std::vector<coll::CollHandle> early;
  for (std::size_t r = 0; r + 1 < w.size(); ++r) {
    early.push_back(w.comms[r].ibarrier());
  }
  // Drive the world until quiescent: with rank 3 absent, nobody may leave.
  auto any_done = [&] {
    for (const auto& h : early) {
      h->try_advance();
      if (h->done()) return true;
    }
    return false;
  };
  EXPECT_FALSE(w.platform.run_until(any_done));
  for (const auto& h : early) EXPECT_FALSE(h->done());

  std::vector<coll::CollHandle> all = early;
  all.push_back(w.comms[w.size() - 1].ibarrier());
  EXPECT_TRUE(coll::wait_all(all, w.hooks));
}

// --- failure semantics -------------------------------------------------------

TEST(CollFault, DeadRailDegradesButCompletes) {
  // Zero-probability chaos wrappers (pass-through) so links can be killed,
  // with ack/retransmit on so death is detected and survivors take over.
  MultiNodeConfig cfg;
  cfg.nodes = 3;
  cfg.progress_mode = ProgressMode::kSerial;
  cfg.chaos = drv::ChaosConfig::uniform(drv::FaultProfile{}, /*window=*/1);
  cfg.strat_cfg.reliability.ack_enabled = true;
  MultiNodePlatform platform(cfg);
  std::vector<coll::Communicator> comms;
  for (std::size_t r = 0; r < 3; ++r) {
    comms.push_back(coll::make_communicator(platform, r));
  }

  const auto truth = random_bytes(1 << 20, 11);
  std::vector<std::vector<std::byte>> bufs{truth,
                                           std::vector<std::byte>(truth.size()),
                                           std::vector<std::byte>(truth.size())};
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < 3; ++r) {
    ops.push_back(comms[r].ibcast(bufs[r], /*root=*/0));
  }
  // Kill one of the two rails on every edge mid-collective: the rail guard
  // must fail over and the broadcast must still complete byte-exact.
  platform.kill_link(0, 1, 0);
  platform.kill_link(0, 2, 0);
  platform.kill_link(1, 2, 0);
  ASSERT_TRUE(coll::wait_all(ops, coll::hooks_for(platform)));
  EXPECT_EQ(bufs[1], truth);
  EXPECT_EQ(bufs[2], truth);
}

TEST(CollFault, DeadGateFailsCollectiveWithoutHanging) {
  MultiNodeConfig cfg;
  cfg.nodes = 3;
  cfg.progress_mode = ProgressMode::kSerial;
  cfg.chaos = drv::ChaosConfig::uniform(drv::FaultProfile{}, /*window=*/1);
  cfg.strat_cfg.reliability.ack_enabled = true;
  MultiNodePlatform platform(cfg);
  std::vector<coll::Communicator> comms;
  for (std::size_t r = 0; r < 3; ++r) {
    comms.push_back(coll::make_communicator(platform, r));
  }

  const auto truth = random_bytes(256 * 1024, 12);
  std::vector<std::vector<std::byte>> bufs{truth,
                                           std::vector<std::byte>(truth.size()),
                                           std::vector<std::byte>(truth.size())};
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < 3; ++r) {
    ops.push_back(comms[r].ibcast(bufs[r], /*root=*/0));
  }
  // Sever the 0<->1 edge entirely: rank 1 is unreachable. The collective
  // must settle (degraded), never hang: wait_all aborts the stuck ranks.
  platform.kill_link(0, 1, 0);
  platform.kill_link(0, 1, 1);
  EXPECT_FALSE(coll::wait_all(ops, coll::hooks_for(platform)));
  for (const auto& h : ops) EXPECT_TRUE(h->done());
  EXPECT_TRUE(ops[0]->failed());  // root's send to rank 1 failed
  EXPECT_TRUE(ops[1]->failed());  // rank 1's receives failed or were aborted
  // Rank 2 hangs off the root directly; its subtree is intact.
  EXPECT_TRUE(ops[2]->completed());
  EXPECT_EQ(bufs[2], truth);
}

// --- strategies see ordinary traffic ----------------------------------------

TEST(CollStrat, SegmentsFlowThroughNormalBacklog) {
  // Large broadcast under the adaptive splitter: every segment must be
  // chunked across both rails by the regular strategy machinery — nothing
  // in coll/ special-cases rails or bypasses the backlog.
  CollWorld w(3, ProgressMode::kSerial, /*chaos=*/false, "split_balance",
              coll::CollConfig{.segment_bytes = 512 * 1024});
  const std::size_t kBytes = 2 << 20;
  const auto truth = random_bytes(kBytes, 21);
  std::vector<std::vector<std::byte>> bufs{truth,
                                           std::vector<std::byte>(kBytes),
                                           std::vector<std::byte>(kBytes)};
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < 3; ++r) {
    ops.push_back(w.comms[r].ibcast(bufs[r], /*root=*/0));
  }
  ASSERT_TRUE(coll::wait_all(ops, w.hooks));
  EXPECT_EQ(bufs[1], truth);
  EXPECT_EQ(bufs[2], truth);

  // Root sent to both children; each child gate's strategy split large
  // segments into chunks and both rails carried DMA payload.
  for (std::size_t child : {1u, 2u}) {
    auto& gate = w.platform.session(0).scheduler().gate(w.platform.gate(0, child));
    if constexpr (obs::kMetricsEnabled) {
      EXPECT_GT(gate.strategy().metrics().segments_split.value(), 0u)
          << "child " << child;
      EXPECT_GT(gate.strategy().metrics().chunks_created.value(), 0u);
    }
    for (RailIndex rail = 0; rail < 2; ++rail) {
      EXPECT_GT(gate.rail(rail).tx.payload_bytes[1], 0u)
          << "child " << child << " rail " << rail;
    }
  }
}

// --- observability -----------------------------------------------------------

TEST(CollMetrics, CountersFireAndRegister) {
  CollWorld w(3, ProgressMode::kSerial, /*chaos=*/false);
  obs::MetricsRegistry registry;
  w.platform.register_metrics(registry);
  for (std::size_t r = 0; r < 3; ++r) {
    w.comms[r].register_metrics(registry, "n" + std::to_string(r) + ".coll.");
  }

  // Two allreduces back-to-back plus a barrier on every rank.
  std::vector<std::uint64_t> c{1, 2, 3};
  std::vector<std::vector<std::uint64_t>> outs(3, std::vector<std::uint64_t>(3));
  for (int round = 0; round < 2; ++round) {
    std::vector<coll::CollHandle> ops;
    for (std::size_t r = 0; r < 3; ++r) {
      ops.push_back(w.comms[r].iallreduce<std::uint64_t>(
          c, std::span<std::uint64_t>(outs[r]), coll::ReduceKind::kSum));
    }
    ASSERT_TRUE(coll::wait_all(ops, w.hooks));
    EXPECT_EQ(outs[0], (std::vector<std::uint64_t>{3, 6, 9}));
  }
  std::vector<coll::CollHandle> ops;
  for (std::size_t r = 0; r < 3; ++r) {
    ops.push_back(w.comms[r].ibarrier());
  }
  ASSERT_TRUE(coll::wait_all(ops, w.hooks));

  const auto& m = w.comms[0].metrics();
  if constexpr (obs::kMetricsEnabled) {
    EXPECT_EQ(m.allreduce_ops.value(), 2u);
    EXPECT_EQ(m.barrier_ops.value(), 1u);
    EXPECT_EQ(m.completed_ops.value(), 3u);
    EXPECT_GT(m.allreduce_bytes.value(), 0u);
    EXPECT_GT(m.rounds.value(), 0u);
    EXPECT_GT(m.segments_sent.value(), 0u);
    EXPECT_EQ(m.tree_depth.high_water(), 2);  // ceil(log2 3)
    EXPECT_EQ(m.failed_ops.value(), 0u);
    const auto snap = registry.snapshot();
    EXPECT_TRUE(snap.counters.contains("n0.coll.allreduce.ops"));
    EXPECT_TRUE(snap.counters.contains("n0.coll.rounds"));
    EXPECT_TRUE(snap.gauges.contains("n0.coll.tree_depth"));
  }
}

}  // namespace

// Epoch-versioned decentralized placement, end to end (publish -> cache ->
// local stripe computation -> epoch-validated reserve/commit). The headline
// invariant: with a warm table cache and stable membership, steady-state
// writes perform ZERO manager placement RPCs — the manager's placement
// work is one table fetch per client, ever, until the membership changes.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/cluster_stats.h"

namespace stdchk {
namespace {

ClusterOptions DecentralizedOptions(int benefactors) {
  ClusterOptions options;
  options.benefactor_count = benefactors;
  options.client.stripe_width = 2;
  options.client.chunk_size = 1024;
  return options;
}

TEST(PlacementProtocolTest, SteadyStateWritesNeedZeroPlacementRpcs) {
  StdchkCluster cluster(DecentralizedOptions(6));
  Rng rng(11);

  Bytes image = rng.RandomBytes(8 * 1024);
  for (std::uint64_t t = 1; t <= 10; ++t) {
    ASSERT_TRUE(
        cluster.client().WriteFile(CheckpointName{"app", "n", t}, image).ok());
  }

  ManagerCounters counters = cluster.manager().Counters();
  // One fetch when the first session warmed the proxy-wide cache; every
  // subsequent write placed its stripe locally.
  EXPECT_EQ(counters.placement_table_fetches, 1u);
  EXPECT_EQ(counters.placement_epoch_mismatches, 0u);
  EXPECT_EQ(counters.server_side_placements, 0u);
  EXPECT_EQ(cluster.client().table_cache().fetch_count(), 1u);

  // The decentralized path still produces readable images.
  auto read = cluster.client().ReadFile(CheckpointName{"app", "n", 10});
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), image);
}

TEST(PlacementProtocolTest, DistinctFilesSpreadAcrossThePool) {
  StdchkCluster cluster(DecentralizedOptions(8));
  Rng rng(12);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cluster.client()
                    .WriteFile(CheckpointName{"app" + std::to_string(i), "n", 1},
                               rng.RandomBytes(2048))
                    .ok());
  }
  // Rendezvous hashing keyed by file name must not dogpile one stripe.
  std::size_t nodes_with_data = 0;
  for (std::size_t i = 0; i < cluster.benefactor_count(); ++i) {
    if (cluster.benefactor(i).ChunkCount() > 0) ++nodes_with_data;
  }
  EXPECT_GT(nodes_with_data, 2u);
}

TEST(PlacementProtocolTest, MembershipChangeCostsExactlyOneRefetch) {
  StdchkCluster cluster(DecentralizedOptions(6));
  Rng rng(13);
  Bytes image = rng.RandomBytes(4096);
  ASSERT_TRUE(
      cluster.client().WriteFile(CheckpointName{"app", "n", 1}, image).ok());
  std::uint64_t epoch_before = cluster.manager().Counters().placement_epoch;

  // A desktop joins the grid: membership changes, the epoch bumps, and
  // every cached table in the fleet is now stale.
  ASSERT_TRUE(cluster.AddBenefactor(4_GiB).ok());
  EXPECT_GT(cluster.manager().Counters().placement_epoch, epoch_before);

  // The next write trips exactly one FailedPrecondition, refetches, and
  // succeeds — the full recovery loop, invisible to the application.
  ASSERT_TRUE(
      cluster.client().WriteFile(CheckpointName{"app", "n", 2}, image).ok());
  ManagerCounters counters = cluster.manager().Counters();
  EXPECT_EQ(counters.placement_epoch_mismatches, 1u);
  EXPECT_EQ(counters.placement_table_fetches, 2u);
  EXPECT_EQ(counters.server_side_placements, 0u);

  // Steady state again: further writes are placement-RPC-free.
  ASSERT_TRUE(
      cluster.client().WriteFile(CheckpointName{"app", "n", 3}, image).ok());
  counters = cluster.manager().Counters();
  EXPECT_EQ(counters.placement_epoch_mismatches, 1u);
  EXPECT_EQ(counters.placement_table_fetches, 2u);
}

TEST(PlacementProtocolTest, StaleClientCannotCommitOntoDepartedBenefactor) {
  ClusterOptions options = DecentralizedOptions(2);
  options.client.protocol = WriteProtocol::kSlidingWindow;
  StdchkCluster cluster(options);
  Rng rng(14);

  auto session = cluster.client().CreateFile(CheckpointName{"app", "n", 1});
  ASSERT_TRUE(session.ok());
  // Sliding-window pushes chunks as they seal, so the reservation (and its
  // placement epoch) is taken here, mid-write.
  ASSERT_TRUE(session.value()->Write(rng.RandomBytes(4096)).ok());

  // Both stripe members depart (administratively, so the data path still
  // responds) between placement and commit.
  PlacementTable table = cluster.manager().GetPlacementTable().value();
  for (const PlacementMember& member : table.members) {
    ASSERT_TRUE(cluster.manager().registry_mutable().SetOffline(member.id).ok());
  }

  // The commit must be rejected: every chunk's replicas sit on departed
  // benefactors, and a stale client may not publish such a map.
  auto outcome = session.value()->Close();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(cluster.manager().Counters().placement_epoch_mismatches, 1u);
  EXPECT_FALSE(cluster.manager().GetVersion(CheckpointName{"app", "n", 1}).ok());
}

}  // namespace
}  // namespace stdchk

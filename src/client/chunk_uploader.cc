#include "client/chunk_uploader.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/log.h"

namespace stdchk {

ChunkUploader::ChunkUploader(Transport* transport,
                             PlacementPolicy* placement,
                             CommitCoordinator* coordinator,
                             const ClientOptions& options, WriteStats* stats)
    : transport_(transport),
      placement_(placement),
      coordinator_(coordinator),
      options_(options),
      stats_(stats) {}

int ChunkUploader::replicas_needed() const {
  return options_.semantics == WriteSemantics::kPessimistic
             ? std::max(1, options_.replication_target)
             : 1;
}

void ChunkUploader::Stage(StagedChunk chunk) {
  Pending p;
  p.map_slot = coordinator_->AddSlot(
      chunk.id, static_cast<std::uint32_t>(chunk.data.size()));
  pending_bytes_ += chunk.data.size();
  p.chunk = std::move(chunk);
  pending_.push_back(std::move(p));
}

Status ChunkUploader::Flush() {
  if (pending_.empty()) return OkStatus();
  if (options_.erasure.enabled()) return FlushErasure();

  // Batch-aware reservation: one ensure covers the whole drain instead of
  // one manager round trip per chunk.
  STDCHK_RETURN_IF_ERROR(coordinator_->EnsureReservation(pending_bytes_));

  // Plan every chunk's candidate walk up front; the cursor advances per
  // chunk so successive chunks spread round-robin over the stripe.
  std::vector<Unit> units;
  std::vector<std::set<NodeId>> taken;
  units.reserve(pending_.size());
  taken.reserve(pending_.size());
  for (Pending& p : pending_) {
    Unit u;
    u.put = ChunkPut{p.chunk.id, p.chunk.data};
    u.candidates = placement_->PlanChunk(coordinator_->stripe());
    placement_->OnChunkPlaced(coordinator_->stripe());
    u.placed = p.replicas;
    u.taken = &taken.emplace_back(p.replicas.begin(), p.replicas.end());
    units.push_back(std::move(u));
  }
  const int needed = replicas_needed();
  Status drained = DrainRounds(units, needed);
  // Validate the whole drain before settling anything: a failed flush
  // must leave pending_ (including replicas already stored this round)
  // intact, so a retry tops up what is missing instead of re-uploading
  // and double-consuming the reservation.
  for (std::size_t i = 0; i < units.size(); ++i) {
    pending_[i].replicas = std::move(units[i].placed);
  }
  STDCHK_RETURN_IF_ERROR(drained);
  for (const Pending& p : pending_) {
    if (p.replicas.empty()) {
      return UnavailableError("could not store chunk on any benefactor");
    }
    if (static_cast<int>(p.replicas.size()) < needed &&
        options_.semantics == WriteSemantics::kPessimistic) {
      return UnavailableError(
          "pessimistic write could not reach replication target " +
          std::to_string(needed));
    }
  }
  for (Pending& p : pending_) {
    coordinator_->ConsumeReserved(p.chunk.data.size());
    coordinator_->SetReplicas(p.map_slot, std::move(p.replicas));
  }
  pending_.clear();
  pending_bytes_ = 0;
  return OkStatus();
}

Status ChunkUploader::DrainRounds(std::vector<Unit>& units, int needed) {
  const std::size_t attempt_limit = coordinator_->stripe().size() * 2 + 4;
  // Drain rounds: each round assigns every still-needy unit its next
  // placement candidate, then puts one (or more, above max_batch_chunks)
  // batched PUT per target node in flight — all nodes concurrently — and
  // harvests the completions.
  while (true) {
    std::map<NodeId, std::vector<Unit*>> queues;
    for (Unit& u : units) {
      if (static_cast<int>(u.placed.size()) >= needed) continue;
      // Next candidate the unit may go to; every pop counts against the
      // failover budget.
      NodeId target = kInvalidNode;
      while (!u.candidates.empty() && u.attempts < attempt_limit) {
        NodeId c = u.candidates.front();
        u.candidates.erase(u.candidates.begin());
        ++u.attempts;
        if (!u.taken->contains(c)) {
          target = c;
          break;
        }
      }
      if (target == kInvalidNode) continue;
      u.taken->insert(target);
      queues[target].push_back(&u);
    }
    if (queues.empty()) break;

    // Submit the whole round before waiting on any of it.
    struct InflightBatch {
      NodeId node;
      std::vector<Unit*> items;
    };
    std::map<OpHandle, InflightBatch> inflight;
    for (auto& [node, items] : queues) {
      std::size_t batch_limit =
          options_.max_batch_chunks == 0 ? items.size()
                                         : options_.max_batch_chunks;
      for (std::size_t begin = 0; begin < items.size(); begin += batch_limit) {
        std::size_t end = std::min(items.size(), begin + batch_limit);
        std::vector<ChunkPut> batch;
        batch.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) batch.push_back(items[i]->put);
        OpHandle h = transport_->Submit(ChunkOp::PutBatch(node, std::move(batch)));
        inflight.emplace(
            h, InflightBatch{node, {items.begin() + static_cast<std::ptrdiff_t>(begin),
                                    items.begin() + static_cast<std::ptrdiff_t>(end)}});
      }
    }
    stats_->inflight_put_peak =
        std::max<std::uint64_t>(stats_->inflight_put_peak, inflight.size());

    std::set<NodeId> replaced_this_round;
    while (!inflight.empty()) {
      std::vector<OpHandle> handles;
      handles.reserve(inflight.size());
      for (const auto& [h, b] : inflight) handles.push_back(h);
      STDCHK_ASSIGN_OR_RETURN(OpCompletion c, transport_->WaitAny(handles));
      auto it = inflight.find(c.handle);
      InflightBatch batch = std::move(it->second);
      inflight.erase(it);

      if (c.status.ok()) {
        ++stats_->batched_puts;
        for (Unit* u : batch.items) {
          u->placed.push_back(batch.node);
          stats_->bytes_transferred += u->put.data.size();
          ++stats_->replica_puts;
        }
        continue;
      }
      // The node rejected the batch (offline, unreachable, full): free it
      // for each affected unit so the unit can walk on, then swap it out
      // of the stripe and patch *every* unit's walk in place —
      // walks were snapshotted from the pre-failure stripe, so the fresh
      // donor must take over the dead node's walk positions (and units
      // outside this batch must see it too). Without a replacement, drop
      // the dead node so walks stop burning failover budget on it. Later
      // completions from the same node this round fail consistently and
      // skip the (already done) replacement.
      STDCHK_LOG(kDebug, "client")
          << "batch put of " << batch.items.size() << " units to node "
          << batch.node << " failed: " << c.status.ToString();
      for (Unit* u : batch.items) u->taken->erase(batch.node);
      if (!replaced_this_round.insert(batch.node).second) continue;
      auto fresh = coordinator_->ReplaceStripeMember(batch.node);
      for (Unit& u : units) {
        if (fresh.ok()) {
          std::replace(u.candidates.begin(), u.candidates.end(), batch.node,
                       fresh.value());
        } else {
          u.candidates.erase(std::remove(u.candidates.begin(),
                                         u.candidates.end(), batch.node),
                             u.candidates.end());
        }
      }
    }
  }
  return OkStatus();
}

Status ChunkUploader::FlushErasure() {
  const int k = options_.erasure.k;
  const int m = options_.erasure.m;

  // The reservation must cover the parity overhead, not just the payload:
  // reserved bytes are what the manager holds against the stripe while the
  // write is open.
  std::uint64_t shard_bytes = 0;
  for (const Pending& p : pending_) {
    for (const BufferSlice& shard : p.chunk.shards) shard_bytes += shard.size();
  }
  STDCHK_RETURN_IF_ERROR(coordinator_->EnsureReservation(shard_bytes));
  if (static_cast<int>(coordinator_->stripe().size()) < k + m) {
    return UnavailableError(
        "erasure-coded write needs a stripe of at least k+m = " +
        std::to_string(k + m) + " benefactors, stripe has " +
        std::to_string(coordinator_->stripe().size()));
  }

  // One placement unit per shard. Shards of one group must land on
  // distinct benefactors — a single death may cost at most one of the m
  // losses the code tolerates.
  const std::size_t group_size = static_cast<std::size_t>(k + m);
  std::vector<Unit> units;
  units.reserve(pending_.size() * group_size);
  std::vector<std::set<NodeId>> group_nodes(pending_.size());
  for (const Pending& p : pending_) {
    std::vector<NodeId> walk = placement_->PlanChunk(coordinator_->stripe());
    placement_->OnChunkPlaced(coordinator_->stripe());
    for (std::size_t s = 0; s < group_size; ++s) {
      Unit u;
      u.put.id = p.chunk.shard_ids[s];
      u.put.data = p.chunk.shards[s];
      u.put.data.StampDigest(u.put.id.digest);
      u.put.group = p.chunk.id;
      u.put.shard_index = static_cast<int>(s);
      // Rotate the group's walk by the shard index so the group fans out
      // across the stripe instead of queueing on its head.
      std::size_t rot = s % walk.size();
      u.candidates.assign(walk.begin() + static_cast<std::ptrdiff_t>(rot),
                          walk.end());
      u.candidates.insert(u.candidates.end(), walk.begin(),
                          walk.begin() + static_cast<std::ptrdiff_t>(rot));
      u.taken = &group_nodes[units.size() / group_size];
      units.push_back(std::move(u));
    }
  }
  Status drained = DrainRounds(units, /*needed=*/1);
  for (const Unit& u : units) {
    if (u.placed.empty()) continue;
    if (u.put.shard_index >= k) {
      ++stats_->parity_shards_written;
      stats_->parity_bytes_written += u.put.data.size();
    } else {
      ++stats_->data_shards_written;
    }
  }
  STDCHK_RETURN_IF_ERROR(drained);

  // All k+m shards of every group must have landed: unlike replication
  // there is no optimistic shortfall — the parity IS the durability, and a
  // group born below full strength has already spent its loss budget.
  for (const Unit& u : units) {
    if (u.placed.empty()) {
      return UnavailableError(
          "could not stripe all " + std::to_string(k + m) +
          " erasure shards across distinct benefactors");
    }
  }
  std::size_t idx = 0;
  for (Pending& p : pending_) {
    std::vector<ShardLocation> locs(group_size);
    std::uint64_t consumed = 0;
    for (std::size_t s = 0; s < group_size; ++s, ++idx) {
      locs[s] = ShardLocation{units[idx].put.id, units[idx].placed.front()};
      consumed += units[idx].put.data.size();
    }
    coordinator_->ConsumeReserved(consumed);
    coordinator_->SetShards(p.map_slot, k, m, std::move(locs));
  }
  pending_.clear();
  pending_bytes_ = 0;
  return OkStatus();
}

}  // namespace stdchk

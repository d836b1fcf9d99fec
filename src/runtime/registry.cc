#include "runtime/registry.h"

#include <algorithm>

namespace lahar {

QueryRegistry::QueryRegistry(EventDatabase* db, LaharOptions options,
                             SharingOptions sharing, size_t window_ticks)
    : db_(db),
      options_(std::move(options)),
      sharing_(sharing),
      // Shared units record one frontier probability per tick; delegated
      // sessions may lag a whole window behind the unit, so the ring covers
      // the window plus slack for the arming tick.
      frontier_history_(window_ticks + 2),
      shared_kernels_(std::make_shared<KernelCache>()),
      shared_rows_(std::make_shared<TransitionRowPool>()) {}

Result<QueryId> QueryRegistry::Register(std::string_view text,
                                        Timestamp tick) {
  // Exact-text dedup: a textually identical re-registration reuses the
  // cached prepared plan (and its kernel cache) instead of reparsing and
  // reclassifying. Sessions stay per-query; only the plan is shared.
  std::string key(text);
  auto it = prepared_cache_.find(key);
  if (it != prepared_cache_.end()) {
    ++prepared_dedup_hits_;
    return RegisterPrepared(it->second.prepared, text, tick,
                            /*cached_plan=*/true);
  }
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(text, db_));
  prepared.kernel_cache = shared_kernels_;
  prepared.row_pool = shared_rows_;
  auto ins = prepared_cache_.emplace(std::move(key),
                                     PreparedEntry{std::move(prepared), 0});
  Result<QueryId> id = RegisterPrepared(ins.first->second.prepared, text,
                                        tick, /*cached_plan=*/true);
  if (!id.ok() && ins.first->second.refs == 0) {
    prepared_cache_.erase(ins.first);
  }
  return id;
}

Result<QueryId> QueryRegistry::Register(const PreparedQuery& prepared,
                                        std::string_view text,
                                        Timestamp tick) {
  return RegisterPrepared(prepared, text, tick, /*cached_plan=*/false);
}

Result<std::unique_ptr<StandingQuery>> QueryRegistry::BuildQuery(
    QueryId id, const PreparedQuery& prepared, std::string_view text,
    Timestamp tick, serial::Reader* state) {
  // Every engine compiles through the prepared query's kernel cache (the
  // registry-wide one for text registrations), so its hit/miss delta is
  // this query's kernel accounting.
  const KernelCache* cache = prepared.kernel_cache.get();
  const KernelCache::Stats before =
      cache != nullptr ? cache->stats() : KernelCache::Stats{};
  LAHAR_ASSIGN_OR_RETURN(std::unique_ptr<QuerySession> session,
                         CreateQuerySession(db_, prepared, options_));
  auto q = std::make_unique<StandingQuery>();
  q->id = id;
  q->text = std::string(text);
  q->query_class = prepared.classification.query_class;
  q->engine = session->engine_kind();
  q->exact = session->exact();
  q->session = std::move(session);
  if (cache != nullptr) {
    q->kernel_hits = cache->stats().hits - before.hits;
    q->kernel_misses = cache->stats().misses - before.misses;
  }
  if (state != nullptr && q->session->SupportsStateRestore()) {
    LAHAR_RETURN_NOT_OK(q->session->LoadState(state));
    if (q->session->time() != tick) {
      return Status::InvalidArgument(
          "restored session for query " + std::to_string(id) + " is at t=" +
          std::to_string(q->session->time()) + ", checkpoint tick is " +
          std::to_string(tick));
    }
  } else if (AdoptTwins(q.get(), tick)) {
    ++registrations_adopted_;
    return q;  // already pooled, delegated to its twins' units
  } else {
    // Catch up to the runtime's clock: the database already stores
    // timesteps 1..tick. Exact sessions replay them tick by tick; sampling
    // sessions draw the same worlds in one pass.
    LAHAR_RETURN_NOT_OK(q->session->RunToHorizon(tick).status());
    ++registrations_replayed_;
  }
  AttachSharing(q.get());
  return q;
}

Result<QueryId> QueryRegistry::RegisterPrepared(const PreparedQuery& prepared,
                                                std::string_view text,
                                                Timestamp tick,
                                                bool cached_plan) {
  LAHAR_ASSIGN_OR_RETURN(
      std::unique_ptr<StandingQuery> q,
      BuildQuery(next_id_++, prepared, text, tick, /*state=*/nullptr));
  q->cached_plan = cached_plan;
  if (cached_plan) {
    auto it = prepared_cache_.find(q->text);
    if (it != prepared_cache_.end()) ++it->second.refs;
  }
  return Add(std::move(q));
}

Status QueryRegistry::RestoreQuery(QueryId id, std::string_view text,
                                   Timestamp tick, serial::Reader* state) {
  if (Find(id) != nullptr) {
    return Status::AlreadyExists("query id " + std::to_string(id) +
                                 " already registered");
  }
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(text, db_));
  prepared.kernel_cache = shared_kernels_;
  prepared.row_pool = shared_rows_;
  LAHAR_ASSIGN_OR_RETURN(std::unique_ptr<StandingQuery> q,
                         BuildQuery(id, prepared, text, tick, state));
  next_id_ = std::max(next_id_, id + 1);
  Add(std::move(q));
  return Status::OK();
}

QueryId QueryRegistry::Add(std::unique_ptr<StandingQuery> q) {
  const QueryId id = q->id;
  queries_.push_back(std::move(q));
  ++version_;
  return id;
}

Status QueryRegistry::Unregister(QueryId id) {
  auto it = std::find_if(
      queries_.begin(), queries_.end(),
      [id](const std::unique_ptr<StandingQuery>& q) { return q->id == id; });
  if (it == queries_.end()) {
    return Status::NotFound("no registered query with id " +
                            std::to_string(id));
  }
  DetachSharing(it->get());
  ReleasePreparedPlan(**it);
  queries_.erase(it);
  ++version_;
  return Status::OK();
}

void QueryRegistry::ReleasePreparedPlan(const StandingQuery& q) {
  if (!q.cached_plan) return;
  auto it = prepared_cache_.find(q.text);
  if (it == prepared_cache_.end()) return;
  if (it->second.refs > 0) --it->second.refs;
  if (it->second.refs == 0) prepared_cache_.erase(it);
}

bool QueryRegistry::AdoptTwins(StandingQuery* q, Timestamp tick) {
  QuerySession* s = q->session.get();
  const size_t n = s->NumShareableUnits();
  if (!sharing_.enabled || tick == 0 || n == 0 || n != s->num_units()) {
    return false;
  }
  // Every unit needs a twin live at `tick`: the pool's unit, or a unit
  // seeded from the pool's one caught-up member (materialized below only
  // if the whole adoption goes through). Nothing is mutated until then.
  std::vector<std::string> keys(n);
  std::vector<std::shared_ptr<SharedSubChain>> units(n);
  std::unordered_map<std::string, std::shared_ptr<SharedSubChain>> seeded;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = s->ShareableUnitKey(i);
    auto it = sharing_pool_.find(keys[i]);
    if (keys[i].empty() || it == sharing_pool_.end()) return false;
    const UnitPool& pool = it->second;
    if (pool.unit != nullptr) {
      units[i] = pool.unit;
    } else if (pool.members.size() == 1) {
      std::shared_ptr<SharedSubChain>& unit = seeded[keys[i]];
      if (unit == nullptr) {
        const UnitMember& m = pool.members.front();
        if (m.query->session->time() != tick) return false;
        unit = m.query->session->MakeSharedUnit(m.unit, frontier_history_);
        if (unit == nullptr) return false;  // errored chain
      }
      units[i] = unit;
    } else {
      return false;  // members that refused to share: no live twin
    }
    if (!units[i]->status().ok() || units[i]->time() != tick) return false;
  }
  if (!s->AdoptUnits(units, tick)) return false;
  for (size_t i = 0; i < n; ++i) {
    UnitPool& pool = sharing_pool_[keys[i]];
    if (pool.unit == nullptr) {
      // Materialize at the second member exactly as AttachSharing does,
      // seeded from the existing member's caught-up chain.
      pool.unit = units[i];
      UnitMember& m = pool.members.front();
      m.delegated = m.query->session->DelegateUnit(m.unit, pool.unit);
      if (m.delegated) pool.unit->AddReader();
    }
    pool.members.push_back(UnitMember{q, i, true});
    q->shared_units.emplace_back(keys[i], i);
    pool.unit->AddReader();
  }
  return true;
}

void QueryRegistry::AttachSharing(StandingQuery* q) {
  if (!sharing_.enabled) return;
  QuerySession* s = q->session.get();
  size_t n = s->NumShareableUnits();
  for (size_t i = 0; i < n; ++i) {
    const std::string key = s->ShareableUnitKey(i);
    if (key.empty()) continue;
    UnitPool& pool = sharing_pool_[key];
    pool.members.push_back(UnitMember{q, i, false});
    q->shared_units.emplace_back(key, i);
    if (pool.unit == nullptr && pool.members.size() >= 2) {
      // Materialize lazily at the second member, seeded from the NEW
      // member's caught-up chain (deterministic stepping makes every
      // member's chain state identical, so any member can seed).
      pool.unit = s->MakeSharedUnit(i, frontier_history_);
      if (pool.unit == nullptr) continue;  // errored chain: stay private
      for (UnitMember& m : pool.members) {
        m.delegated = m.query->session->DelegateUnit(m.unit, pool.unit);
        if (m.delegated) pool.unit->AddReader();
      }
      if (pool.unit->readers() < 2) {
        // Sharing didn't take (e.g. a member refused on a latched error):
        // roll everyone back to private stepping.
        for (UnitMember& m : pool.members) {
          if (m.delegated) {
            m.query->session->DelegateUnit(m.unit, nullptr);
            m.delegated = false;
          }
        }
        pool.unit = nullptr;
      }
    } else if (pool.unit != nullptr) {
      UnitMember& m = pool.members.back();
      m.delegated = s->DelegateUnit(i, pool.unit);
      if (m.delegated) pool.unit->AddReader();
    }
  }
}

void QueryRegistry::DetachSharing(StandingQuery* q) {
  for (const auto& [key, idx] : q->shared_units) {
    auto it = sharing_pool_.find(key);
    if (it == sharing_pool_.end()) continue;
    UnitPool& pool = it->second;
    for (auto mit = pool.members.begin(); mit != pool.members.end(); ++mit) {
      if (mit->query != q || mit->unit != idx) continue;
      if (mit->delegated && pool.unit != nullptr) {
        q->session->DelegateUnit(idx, nullptr);
        pool.unit->DropReader();
      }
      pool.members.erase(mit);
      break;
    }
    // Below two readers the unit saves nothing: undelegate the survivors
    // (copying the live shared state back into their private chains) and
    // drop the unit. A later re-registration re-materializes it.
    if (pool.unit != nullptr && pool.unit->readers() < 2) {
      for (UnitMember& m : pool.members) {
        if (m.delegated) {
          m.query->session->DelegateUnit(m.unit, nullptr);
          m.delegated = false;
        }
      }
      pool.unit = nullptr;
    }
    if (pool.members.empty()) sharing_pool_.erase(it);
  }
  q->shared_units.clear();
}

void QueryRegistry::AdvanceSharedUnits(Timestamp to) {
  for (auto& [key, pool] : sharing_pool_) {
    (void)key;
    if (pool.unit == nullptr) continue;
    size_t steps = pool.unit->AdvanceTo(to);
    shared_steps_executed_ += steps;
    shared_steps_saved_ += steps * (pool.unit->readers() - 1);
  }
}

size_t QueryRegistry::num_sharing_groups() const {
  size_t n = 0;
  for (const auto& [key, pool] : sharing_pool_) {
    (void)key;
    if (pool.unit != nullptr) ++n;
  }
  return n;
}

std::vector<size_t> QueryRegistry::SharingFanouts() const {
  std::vector<size_t> out;
  for (const auto& [key, pool] : sharing_pool_) {
    (void)key;
    if (pool.unit != nullptr) out.push_back(pool.unit->readers());
  }
  return out;
}

StandingQuery* QueryRegistry::Find(QueryId id) const {
  for (auto& q : queries_) {
    if (q->id == id) return q.get();
  }
  return nullptr;
}

size_t QueryRegistry::total_chains() const {
  size_t total = 0;
  for (const auto& q : queries_) total += q->session->num_units();
  return total;
}

}  // namespace lahar

// Online evaluation: the streaming mode of Theorems 3.3 and 3.7. A session
// is created over a database whose streams are declared (keys and domains
// interned) but not necessarily populated; inference output is appended one
// timestep at a time and Advance() returns the up-to-date P[q@t] — O(1)
// incremental work for Regular queries, O(m) for Extended Regular.
//
//   StreamingSession session = *StreamingSession::Create(&db,
//       "At('Joe', l : CoffeeRoom(l))");
//   for each arriving timestep:
//     db.AppendMarginal(joe_stream, filter_output);  // or AppendMarkovStep
//     double p = *session.Advance();
//
// Safe and Unsafe queries are rejected: their evaluation needs the archived
// history (Theorem 3.10's growing state). They are still served incrementally
// through the other QuerySession implementations (see engine/session.h).
#ifndef LAHAR_ENGINE_STREAMING_H_
#define LAHAR_ENGINE_STREAMING_H_

#include <string_view>

#include "analysis/prepared.h"
#include "engine/extended_engine.h"
#include "engine/session.h"
#include "query/ast.h"

namespace lahar {

/// \brief Incremental evaluation session for (Extended) Regular queries.
class StreamingSession : public QuerySession {
 public:
  /// Parses and classifies `text`, then delegates to the PreparedQuery
  /// overload. Keys and value domains visible at creation are final:
  /// streams added or domain values interned later are not picked up (the
  /// paper's per-key chains are likewise fixed at query start).
  static Result<StreamingSession> Create(EventDatabase* db,
                                         std::string_view text);

  /// Creates a session from an already-prepared query, skipping the
  /// reparse/reclassify work — the path used when registering many standing
  /// queries at once (see src/runtime/registry.h). Fails with UnsafeQuery
  /// (carrying the class in the kQueryClassPayload payload) if the prepared
  /// query is not streamable.
  static Result<StreamingSession> Create(EventDatabase* db,
                                         const PreparedQuery& prepared);

  /// As above, with explicit chain-construction knobs (kernel budgets,
  /// step mode, chain lifecycle). The cache/pool/index pointers in
  /// `chain_options` are overridden with the PreparedQuery's shared caches.
  static Result<StreamingSession> Create(EventDatabase* db,
                                         const PreparedQuery& prepared,
                                         const ChainOptions& chain_options);

  /// Consumes timestep time()+1 (which every stream must already cover via
  /// Append*, unless it has simply ended) and returns P[q@t] at the new
  /// time.
  Result<double> Advance() override;

  /// Split form of Advance() for the sharded runtime executor: advances
  /// only the chains in [begin, end) to time()+1. Disjoint ranges may run
  /// on different threads; the database must be quiescent meanwhile.
  void AdvanceShard(size_t begin, size_t end) override;

  /// Completes a split advance once every chain range has been stepped:
  /// bumps time() and returns P[q@t], combined bit-identically to
  /// Advance().
  Result<double> CommitAdvance() override;

  /// The last consumed timestep (0 before the first Advance).
  Timestamp time() const override { return engine_.time(); }

  /// Units are the per-grounding chains (the O(m) of Theorem 3.7).
  size_t num_units() const override { return engine_.num_chains(); }
  size_t UnitCost(size_t i) const override { return engine_.ChainCost(i); }

  /// Shard groups are the engine's lane-interleaved stripes: splitting one
  /// across shards would demote every lane to per-chain fallback steps.
  size_t UnitGroupEnd(size_t i) const override {
    return engine_.ChainGroupEnd(i);
  }

  /// Sharing, SIMD-kernel and chain-lifecycle counters (docs/PERF.md).
  SessionCounters Counters() const override;

  /// Streaming state is O(chains), so checkpoints serialize it directly
  /// instead of replaying the archived prefix.
  bool SupportsStateRestore() const override { return true; }
  Status SaveState(serial::Writer* w) const override {
    engine_.SaveState(w);
    return Status::OK();
  }
  Status LoadState(serial::Reader* r) override {
    return engine_.LoadState(r);
  }

  /// Number of per-grounding chains (alias of num_units for diagnostics).
  size_t num_chains() const { return engine_.num_chains(); }

  /// The underlying engine (diagnostics: per-chain probabilities and
  /// bindings).
  const ExtendedRegularEngine& engine() const { return engine_; }

  // Cross-session sharing (docs/SHARING.md): every grounded chain is a
  // shareable unit keyed by the canonical form of its grounded query.
  // Lifecycle sessions decline sharing entirely — stubs and spilled
  // bindings hold no live chain to seed or adopt a shared unit with.
  size_t NumShareableUnits() const override {
    return engine_.lifecycle_enabled() ? 0 : engine_.num_chains();
  }
  const std::string& ShareableUnitKey(size_t i) const override {
    return unit_keys_[i];
  }
  std::shared_ptr<SharedSubChain> MakeSharedUnit(
      size_t i, size_t frontier_history) const override;
  bool DelegateUnit(size_t i,
                    const std::shared_ptr<SharedSubChain>& unit) override;

 private:
  StreamingSession(ExtendedRegularEngine engine, QueryClass query_class)
      : QuerySession(query_class,
                     query_class == QueryClass::kRegular
                         ? EngineKind::kRegular
                         : EngineKind::kExtendedRegular,
                     /*exact=*/true),
        engine_(std::move(engine)) {}

  ExtendedRegularEngine engine_;
  /// Canonical key per grounded chain (index-aligned with engine chains).
  std::vector<std::string> unit_keys_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_STREAMING_H_

// lahar_cli: query saved probabilistic event databases from the shell.
//
//   lahar_cli QUERY DBFILE          run a query, print P[q@t] per timestep
//   lahar_cli --classify QUERY DBFILE
//   lahar_cli --explain DBFILE QUERY...
//                                   print each query's plan before/after the
//                                   canonicalizing rewrite and the sharing
//                                   groups the queries form (docs/SHARING.md)
//   lahar_cli --gen DBFILE          write a demo database (3 office
//                                   workers)
//   lahar_cli --serve [flags] DBFILE QUERY...
//                                   replay DBFILE live through the
//                                   concurrent runtime (docs/RUNTIME.md)
//                                   and print every published tick
//   lahar_cli --serve --port N [flags] DBFILE [QUERY...]
//                                   serve DBFILE's declarations over TCP:
//                                   clients stream ingest, register
//                                   queries and subscribe with the binary
//                                   protocol of src/net/protocol.h
//                                   (docs/SERVING.md); the bound port is
//                                   printed as "listening on HOST:PORT"
//   lahar_cli --connect HOST:PORT QUERY...
//                                   register queries on a running
//                                   --serve --port server and stream the
//                                   pushed per-tick probabilities
//
// Serve-mode flags (anywhere after --serve):
//   --checkpoint-every N            checkpoint the runtime every N ticks
//                                   (needs --checkpoint-path)
//   --checkpoint-path FILE          where periodic, client-triggered and
//                                   final checkpoints are written
//   --restore FILE                  resume from a checkpoint: queries come
//                                   from the snapshot (none are needed on
//                                   the command line) and a replay skips
//                                   the ticks it already consumed
//   --threads N                     runtime worker threads (default
//                                   hardware concurrency)
//   --queue-capacity N              ingest queue depth in batches
//                                   (default 256)
//   --port N                        ingest over TCP instead of replaying
//                                   DBFILE (0 = ephemeral port)
//   --host ADDR                     bind address (default 127.0.0.1)
//   --max-connections N             connection cap (default 256)
//   --outbound-limit B              per-connection outbound byte cap; a
//                                   subscriber lagging past it is
//                                   disconnected (default 4MiB)
//   --quota-burst N                 default per-tenant ingest token bucket
//                                   size (default 0 = unlimited)
//   --quota-refill R                tokens per second refilled into it
// The network flags (--host and after) take effect only with --port.
//
// Connect-mode flags (anywhere after --connect):
//   --tenant NAME                   tenant for the kHello handshake
//   --stats                         print the server's stats JSON and exit
//
// Serve mode shuts down gracefully on SIGINT/SIGTERM: input stops (the
// replay producer, or the server's ingest), the ingest queue drains
// through its remaining ticks, a final checkpoint is written when
// --checkpoint-path was given, the stats are printed, and the process
// exits 0.
//
// The database format is documented in src/model/io.h; --gen produces one
// to play with:
//
//   ./lahar_cli --gen /tmp/demo.db
//   ./lahar_cli "At('tag1', l : CoffeeRoom(l))" /tmp/demo.db
//   ./lahar_cli --serve /tmp/demo.db "At(x, l : CoffeeRoom(l))"
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/plan.h"
#include "common/file.h"
#include "engine/lahar.h"
#include "parse_flags.h"
#include "model/io.h"
#include "net/client.h"
#include "net/server.h"
#include "query/printer.h"
#include "runtime/executor.h"
#include "runtime/replay.h"
#include "sim/scenarios.h"

using namespace lahar;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Generate(const std::string& path) {
  PipelineConfig config;
  config.read_rate = 0.6;
  config.coffee_bias = 3.0;
  Result<Scenario> scenario = OfficeScenario(3, 120, /*seed=*/7, config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  auto db = scenario->BuildDatabase(StreamKind::kFiltered);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  if (Status s = WriteDatabaseToFile(**db, path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu streams over %u timesteps to %s\n",
              (*db)->num_streams(), (*db)->horizon(), path.c_str());
  return 0;
}

int Classify(EventDatabase* db, const std::string& query) {
  Lahar lahar(db);
  auto prepared = lahar.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("class: %s\n",
              QueryClassName(prepared->classification.query_class));
  if (!prepared->classification.reason.empty()) {
    std::printf("note:  %s\n", prepared->classification.reason.c_str());
  }
  if (prepared->classification.query_class == QueryClass::kSafe) {
    PlanOptions options;
    options.assume_distinct_keys = true;
    auto plan = CompileSafePlan(prepared->normalized, *db, options);
    if (plan.ok()) {
      std::printf("plan:  %s\n",
                  PlanToString(**plan, db->interner()).c_str());
    }
  }
  return 0;
}

// --explain: the sharing pass as a diagnostic. For every query, print the
// parsed plan ("before"), its canonical rewrite ("after" — alpha-renamed
// variables, sorted predicate clauses, oriented comparisons), whether the
// runtime would share live chain state for it, and — across the whole
// command line — which queries fall into the same sharing group or overlap
// on an automaton prefix (docs/SHARING.md).
int Explain(EventDatabase* db, const std::vector<std::string>& queries) {
  SharedPlanIndex index;
  std::vector<PreparedQuery> prepared;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto p = PrepareQuery(queries[i], db);
    if (!p.ok()) {
      std::fprintf(stderr, "%s: %s\n", queries[i].c_str(),
                   p.status().ToString().c_str());
      return 1;
    }
    index.Add(i, AnalyzeSharing(p->normalized, p->classification));
    prepared.push_back(std::move(*p));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const PreparedQuery& p = prepared[i];
    std::printf("query %zu: %s\n", i, queries[i].c_str());
    std::printf("  class:  %s\n",
                QueryClassName(p.classification.query_class));
    std::printf("  before: %s\n",
                ToString(*p.ast, db->interner()).c_str());
    std::printf("  after:  %s\n",
                CanonicalToString(p.normalized, db->interner()).c_str());
    if (p.classification.query_class == QueryClass::kSafe) {
      PlanOptions options;
      options.assume_distinct_keys = true;
      auto plan = CompileSafePlan(p.normalized, *db, options);
      if (plan.ok()) {
        std::printf("  plan:   %s\n",
                    PlanToString(**plan, db->interner()).c_str());
      }
    }
    const QuerySharingInfo* info = index.Find(i);
    if (info != nullptr && !info->sharable) {
      std::printf("  sharing: declined (%s)\n", info->decline_reason.c_str());
    } else {
      auto overlap = index.LongestPrefixOverlap(i);
      std::printf("  sharing: eligible; alphabet peers=%zu",
                  index.NumAlphabetPeers(i));
      if (overlap.subgoals > 0) {
        std::printf(", shares a %zu-subgoal automaton prefix with query "
                    "%llu",
                    overlap.subgoals,
                    static_cast<unsigned long long>(overlap.with));
      }
      std::printf("\n");
    }
  }
  size_t group = 0;
  for (const auto& g : index.Groups()) {
    if (g.members.size() < 2) continue;
    std::printf("group %zu: queries", group++);
    for (uint64_t id : g.members) {
      std::printf(" %llu", static_cast<unsigned long long>(id));
    }
    std::printf(" are structurally identical (one shared evaluation unit "
                "in the runtime)\n");
  }
  if (group == 0) {
    std::printf("no structurally identical queries; nothing to share at "
                "runtime\n");
  }
  return 0;
}

int RunQuery(EventDatabase* db, const std::string& query) {
  LaharOptions options;
  options.plan.assume_distinct_keys = true;
  Lahar lahar(db, options);
  auto answer = lahar.Run(query);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("# engine=%s class=%s exact=%s\n",
              EngineKindName(answer->engine),
              QueryClassName(answer->query_class),
              answer->exact ? "yes" : "no (sampled)");
  std::printf("# t  P[q@t]\n");
  for (Timestamp t = 1; t < answer->probs.size(); ++t) {
    std::printf("%u %.6f\n", t, answer->probs[t]);
  }
  return 0;
}

// Serve-mode configuration (see the usage comment up top).
struct ServeConfig {
  RuntimeOptions runtime;
  net::ServerOptions server;    // network fields apply with --port only
  bool tcp = false;             // --port given: ingest arrives over TCP
  size_t checkpoint_every = 0;  // 0 = never checkpoint
  std::string restore_path;     // empty = fresh start
};

bool WriteCheckpoint(const StreamRuntime& runtime, const std::string& path,
                     const char* what) {
  auto snapshot = runtime.Checkpoint();
  Status s = snapshot.ok() ? WriteFileAtomic(path, *snapshot)
                           : snapshot.status();
  if (!s.ok()) std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  return s.ok();
}

// Serves an archived database through the streaming runtime. The modes
// differ only in their input: by default a producer pushes one TickBatch
// per archived timestep, with backpressure, as if it were arriving live,
// and every published TickResult is printed; with --port a net::Server
// takes ingest, registrations and subscriptions over TCP (docs/SERVING.md).
int Serve(const EventDatabase& archive,
          const std::vector<std::string>& queries, ServeConfig config) {
  auto live = CloneDeclarations(archive);
  if (!live.ok()) {
    std::fprintf(stderr, "%s\n", live.status().ToString().c_str());
    return 1;
  }
  std::vector<TickBatch> batches;
  if (!config.tcp) {
    auto extracted = ExtractBatches(archive);
    if (!extracted.ok()) {
      std::fprintf(stderr, "%s\n", extracted.status().ToString().c_str());
      return 1;
    }
    batches = std::move(*extracted);
  }
  // Serve every query class: Safe queries compile to incremental plans
  // (distinct-keys assumption, as in batch mode) and Unsafe or
  // plan-less Safe queries fall back to approximate sampling sessions.
  config.runtime.session.plan.assume_distinct_keys = true;
  StreamRuntime runtime(live->get(), config.runtime);
  std::vector<QueryId> ids;
  if (!config.restore_path.empty()) {
    auto snapshot = ReadFile(config.restore_path);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "cannot read checkpoint %s\n",
                   config.restore_path.c_str());
      return 1;
    }
    if (Status s = runtime.Restore(*snapshot); !s.ok()) {
      std::fprintf(stderr, "restore: %s\n", s.ToString().c_str());
      return 1;
    }
    ids = runtime.QueryIds();
    std::printf("# restored %zu queries at tick %u from %s\n", ids.size(),
                runtime.tick(), config.restore_path.c_str());
  }
  for (const std::string& q : queries) {
    auto id = runtime.Register(q);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    ids.push_back(*id);
  }
  for (QueryId id : ids) {
    auto qs = runtime.QuerySnapshot(id);
    if (!qs.ok()) continue;
    std::printf("# q%llu [%s via %s%s]: %s\n",
                static_cast<unsigned long long>(qs->id),
                qs->query_class.c_str(), qs->engine.c_str(),
                qs->exact ? "" : ", (eps,delta)-approximate",
                qs->text.c_str());
  }
  const std::string& checkpoint_path = config.server.checkpoint_path;
  auto on_tick = [&](const TickResult& r) {
    if (!config.tcp) {
      std::printf("%u", r.t);
      for (QueryId id : ids) {
        const double* p = r.Find(id);
        std::printf(" %.6f", p ? *p : 0.0);
      }
      std::printf("\n");
    }
    // Checkpoint() is callback-safe: the coordinator holds no locks here,
    // and the snapshot lands exactly at tick r.t.
    if (config.checkpoint_every > 0 && r.t % config.checkpoint_every == 0) {
      WriteCheckpoint(runtime, checkpoint_path, "checkpoint");
    }
  };
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::unique_ptr<net::Server> server;
  if (config.tcp) {
    // The server owns the runtime's tick-callback slot.
    config.server.on_tick = on_tick;
    server = std::make_unique<net::Server>(&runtime, config.server);
    runtime.Start();
    if (Status s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("listening on %s:%u\n", config.server.host.c_str(),
                server->port());
    std::fflush(stdout);
    while (g_signal == 0 && runtime.running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    server->Stop();  // no new ingest
  } else {
    std::printf("# t");
    for (QueryId id : ids) {
      std::printf("  P[q%llu@t]", static_cast<unsigned long long>(id));
    }
    std::printf("\n");
    runtime.SetTickCallback(on_tick);
    const Timestamp resume_from = runtime.tick();
    runtime.Start();
    for (TickBatch& b : batches) {
      if (g_signal != 0) break;  // graceful shutdown: stop producing
      // On restore, ticks the checkpoint already covers are history; the
      // runtime would reject them as duplicates anyway, so skip the push.
      if (b.t <= resume_from) continue;
      // Short deadlines so a SIGINT during backpressure is noticed quickly
      // (Push takes its batch by value, so a timed-out attempt leaves `b`
      // intact for the retry).
      Status s;
      do {
        s = runtime.ingest().Push(b, std::chrono::milliseconds(200));
      } while (s.code() == StatusCode::kOutOfRange && g_signal == 0);
      if (!s.ok()) {
        if (s.code() != StatusCode::kOutOfRange) {
          std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
        }
        break;
      }
    }
  }
  if (g_signal != 0) {
    std::fprintf(stderr, "# interrupted: draining ingest queue...\n");
  }
  // End of stream: the coordinator exits once the closed queue has drained
  // through every accepted tick, whether we got here by end of input or by
  // signal.
  runtime.ingest().Close();
  while (runtime.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  runtime.Stop();
  if (!checkpoint_path.empty()) {
    if (!WriteCheckpoint(runtime, checkpoint_path, "final checkpoint")) {
      return 1;
    }
    std::printf("# final checkpoint (tick %u) written to %s\n",
                runtime.tick(), checkpoint_path.c_str());
  }
  RuntimeStats stats = server ? server->Stats() : runtime.Stats();
  std::printf("\n%s", stats.ToString().c_str());
  return 0;
}

// Thin client over a running `--serve --port` server: registers the
// queries remotely, subscribes, and prints the pushed per-tick
// probabilities in the same format a replaying Serve() uses locally.
int Connect(const std::string& endpoint, const std::string& tenant,
            bool stats_only, const std::vector<std::string>& queries) {
  auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect needs HOST:PORT, got %s\n",
                 endpoint.c_str());
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  uint64_t port = 0;
  if (!examples::ParseUint("--connect port", endpoint.c_str() + colon + 1, 1,
                           65535, &port)) {
    return 2;
  }
  auto client = net::Client::Connect(host, static_cast<uint16_t>(port),
                                     tenant.empty() ? "default" : tenant);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }
  if (stats_only) {
    auto json = (*client)->StatsJson();
    if (!json.ok()) {
      std::fprintf(stderr, "%s\n", json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }
  std::vector<QueryId> ids;
  for (const std::string& q : queries) {
    auto reg = (*client)->RegisterQuery(q);
    if (!reg.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.c_str(),
                   reg.status().ToString().c_str());
      return 1;
    }
    std::printf("# q%llu [%s via %s%s]: %s\n",
                static_cast<unsigned long long>(reg->id),
                reg->query_class.c_str(), reg->engine.c_str(),
                reg->exact ? "" : ", (eps,delta)-approximate", q.c_str());
    if (Status s = (*client)->Subscribe(reg->id); !s.ok()) {
      std::fprintf(stderr, "subscribe q%llu: %s\n",
                   static_cast<unsigned long long>(reg->id),
                   s.ToString().c_str());
      return 1;
    }
    ids.push_back(reg->id);
  }
  std::printf("# t");
  for (QueryId id : ids) {
    std::printf("  P[q%llu@t]", static_cast<unsigned long long>(id));
  }
  std::printf("\n");
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0) {
    auto update = (*client)->NextUpdate(std::chrono::milliseconds(250));
    if (!update.ok()) {
      if (update.status().code() == StatusCode::kOutOfRange) continue;
      if (g_signal != 0) break;
      std::fprintf(stderr, "%s\n", update.status().ToString().c_str());
      return 1;
    }
    std::printf("%u", update->t);
    for (QueryId id : ids) {
      double p = 0.0;
      for (const auto& [qid, prob] : update->probs) {
        if (qid == id) p = prob;
      }
      std::printf(" %.6f", p);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--gen") == 0) {
    return Generate(argv[2]);
  }
  bool serve = argc >= 2 && std::strcmp(argv[1], "--serve") == 0;
  if (serve) {
    ServeConfig config;
    std::string dbfile;
    std::vector<std::string> queries;
    bool bad = false;
    for (int i = 2; i < argc; ++i) {
      auto flag_value = [&](const char* name) -> const char* {
        if (std::strcmp(argv[i], name) != 0) return nullptr;
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s needs a value\n", name);
          bad = true;
          return nullptr;
        }
        return argv[++i];
      };
      uint64_t n = 0;
      double d = 0;
      if (const char* v = flag_value("--checkpoint-every")) {
        if (!examples::ParseUint("--checkpoint-every", v, 0, UINT32_MAX, &n))
          return 2;
        config.checkpoint_every = static_cast<size_t>(n);
      } else if (const char* v = flag_value("--checkpoint-path")) {
        config.server.checkpoint_path = v;
      } else if (const char* v = flag_value("--restore")) {
        config.restore_path = v;
      } else if (const char* v = flag_value("--threads")) {
        if (!examples::ParseUint("--threads", v, 0, 4096, &n)) return 2;
        config.runtime.num_threads = static_cast<size_t>(n);
      } else if (const char* v = flag_value("--queue-capacity")) {
        if (!examples::ParseUint("--queue-capacity", v, 1, UINT32_MAX, &n))
          return 2;
        config.runtime.queue_capacity = static_cast<size_t>(n);
      } else if (const char* v = flag_value("--port")) {
        // 0 stays legal: it asks the OS for an ephemeral port.
        if (!examples::ParseUint("--port", v, 0, 65535, &n)) return 2;
        config.server.port = static_cast<uint16_t>(n);
        config.tcp = true;
      } else if (const char* v = flag_value("--host")) {
        config.server.host = v;
      } else if (const char* v = flag_value("--max-connections")) {
        if (!examples::ParseUint("--max-connections", v, 1, UINT32_MAX, &n))
          return 2;
        config.server.max_connections = static_cast<size_t>(n);
      } else if (const char* v = flag_value("--outbound-limit")) {
        if (!examples::ParseUint("--outbound-limit", v, 1, UINT64_MAX / 2,
                                 &n))
          return 2;
        config.server.outbound_buffer_limit = static_cast<size_t>(n);
      } else if (const char* v = flag_value("--quota-burst")) {
        if (!examples::ParseDouble("--quota-burst", v, 0.0, 1e18, &d))
          return 2;
        config.server.default_quota.burst = d;
      } else if (const char* v = flag_value("--quota-refill")) {
        if (!examples::ParseDouble("--quota-refill", v, 0.0, 1e18, &d))
          return 2;
        config.server.default_quota.refill_per_sec = d;
      } else if (!bad) {
        if (dbfile.empty()) {
          dbfile = argv[i];
        } else {
          queries.emplace_back(argv[i]);
        }
      }
    }
    if (config.checkpoint_every > 0 && config.server.checkpoint_path.empty()) {
      std::fprintf(stderr, "--checkpoint-every needs --checkpoint-path\n");
      return 2;
    }
    // A replay needs queries, from the command line or a restored
    // checkpoint; a TCP server may start empty (clients register).
    if (bad || dbfile.empty() ||
        (queries.empty() && config.restore_path.empty() && !config.tcp)) {
      std::fprintf(stderr,
                   "usage: %s --serve [--checkpoint-every N] "
                   "[--checkpoint-path FILE] [--restore FILE] "
                   "[--threads N] [--queue-capacity N] "
                   "[--port N [--host ADDR] [--max-connections N] "
                   "[--outbound-limit BYTES] [--quota-burst N] "
                   "[--quota-refill R]] DBFILE QUERY...\n",
                   argv[0]);
      return 2;
    }
    auto db = ReadDatabaseFromFile(dbfile);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    return Serve(**db, queries, std::move(config));
  }
  bool explain = argc >= 2 && std::strcmp(argv[1], "--explain") == 0;
  if (explain) {
    if (argc < 4) {
      std::fprintf(stderr, "usage: %s --explain DBFILE QUERY...\n", argv[0]);
      return 2;
    }
    auto db = ReadDatabaseFromFile(argv[2]);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> queries(argv + 3, argv + argc);
    return Explain(db->get(), queries);
  }
  bool connect = argc >= 2 && std::strcmp(argv[1], "--connect") == 0;
  if (connect) {
    std::string endpoint;
    std::string tenant;
    bool stats_only = false;
    std::vector<std::string> queries;
    bool bad = false;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--tenant") == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "--tenant needs a value\n");
          bad = true;
        } else {
          tenant = argv[++i];
        }
      } else if (std::strcmp(argv[i], "--stats") == 0) {
        stats_only = true;
      } else if (endpoint.empty()) {
        endpoint = argv[i];
      } else {
        queries.emplace_back(argv[i]);
      }
    }
    if (bad || endpoint.empty() || (queries.empty() && !stats_only)) {
      std::fprintf(stderr,
                   "usage: %s --connect HOST:PORT [--tenant NAME] "
                   "[--stats] QUERY...\n",
                   argv[0]);
      return 2;
    }
    return Connect(endpoint, tenant, stats_only, queries);
  }
  bool classify = argc == 4 && std::strcmp(argv[1], "--classify") == 0;
  if (argc != 3 && !classify) {
    std::fprintf(stderr,
                 "usage: %s QUERY DBFILE\n"
                 "       %s --classify QUERY DBFILE\n"
                 "       %s --explain DBFILE QUERY...\n"
                 "       %s --gen DBFILE\n"
                 "       %s --serve [--port N] DBFILE QUERY...\n"
                 "       %s --connect HOST:PORT QUERY...\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  const char* query = classify ? argv[2] : argv[1];
  const char* path = classify ? argv[3] : argv[2];
  auto db = ReadDatabaseFromFile(path);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  return classify ? Classify(db->get(), query) : RunQuery(db->get(), query);
}

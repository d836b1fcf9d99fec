// lahar_server: the network serving front-end (docs/SERVING.md).
//
//   lahar_server [flags] DBFILE [QUERY...]
//
// Loads DBFILE for its *declarations* (schemas, streams, relations) and
// serves a live runtime over TCP: clients connect with the binary protocol
// in src/net/protocol.h to stream ingest batches, register standing
// queries, subscribe to per-tick µ(q@t) pushes, fetch stats, and trigger
// checkpoints. Queries given on the command line are registered up front.
//
// Flags:
//   --port N              TCP port (default 0 = ephemeral; the bound port
//                         is printed on startup)
//   --host ADDR           bind address (default 127.0.0.1)
//   --threads N           runtime worker threads (default hardware)
//   --pin                 pin worker i to core i mod cores (Linux only)
//   --queue-capacity N    ingest queue depth in batches (default 256)
//   --max-connections N   connection cap (default 256)
//   --outbound-limit B    per-connection outbound byte cap; a subscriber
//                         lagging past it is disconnected (default 4MiB)
//   --quota-burst N       default per-tenant ingest token bucket size
//                         (default 0 = unlimited)
//   --quota-refill R      tokens per second refilled into the bucket
//   --checkpoint-every N  checkpoint the runtime every N ticks
//   --checkpoint-path F   where checkpoints (periodic, client-triggered,
//                         and the final shutdown one) are written
//   --restore F           resume from a checkpoint before serving
//
// SIGINT/SIGTERM shut down gracefully: stop accepting ingest, drain the
// queue through the remaining ticks, write a final checkpoint when
// --checkpoint-path is set, then exit 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/file.h"
#include "model/io.h"
#include "net/server.h"
#include "parse_flags.h"
#include "runtime/executor.h"
#include "runtime/replay.h"

using namespace lahar;

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int) { g_signal = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--host ADDR] [--threads N] [--pin] "
               "[--queue-capacity N] [--max-connections N] "
               "[--outbound-limit BYTES] [--quota-burst N] "
               "[--quota-refill R] [--checkpoint-every N] "
               "[--checkpoint-path FILE] [--restore FILE] DBFILE [QUERY...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions server_options;
  RuntimeOptions runtime_options;
  runtime_options.session.plan.assume_distinct_keys = true;
  size_t checkpoint_every = 0;
  std::string restore_path;
  std::string dbfile;
  std::vector<std::string> queries;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
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
    if (const char* v = flag_value("--port")) {
      // 0 stays legal: it asks the OS for an ephemeral port.
      if (!examples::ParseUint("--port", v, 0, 65535, &n)) return 2;
      server_options.port = static_cast<uint16_t>(n);
    } else if (const char* v = flag_value("--host")) {
      server_options.host = v;
    } else if (const char* v = flag_value("--threads")) {
      if (!examples::ParseUint("--threads", v, 0, 4096, &n)) return 2;
      runtime_options.num_threads = static_cast<size_t>(n);
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      runtime_options.pin_threads = true;
    } else if (const char* v = flag_value("--queue-capacity")) {
      if (!examples::ParseUint("--queue-capacity", v, 1, UINT32_MAX, &n))
        return 2;
      runtime_options.queue_capacity = static_cast<size_t>(n);
    } else if (const char* v = flag_value("--max-connections")) {
      if (!examples::ParseUint("--max-connections", v, 1, UINT32_MAX, &n))
        return 2;
      server_options.max_connections = static_cast<size_t>(n);
    } else if (const char* v = flag_value("--outbound-limit")) {
      if (!examples::ParseUint("--outbound-limit", v, 1, UINT64_MAX / 2, &n))
        return 2;
      server_options.outbound_buffer_limit = static_cast<size_t>(n);
    } else if (const char* v = flag_value("--quota-burst")) {
      if (!examples::ParseDouble("--quota-burst", v, 0.0, 1e18, &d)) return 2;
      server_options.default_quota.burst = d;
    } else if (const char* v = flag_value("--quota-refill")) {
      if (!examples::ParseDouble("--quota-refill", v, 0.0, 1e18, &d))
        return 2;
      server_options.default_quota.refill_per_sec = d;
    } else if (const char* v = flag_value("--checkpoint-every")) {
      if (!examples::ParseUint("--checkpoint-every", v, 0, UINT32_MAX, &n))
        return 2;
      checkpoint_every = static_cast<size_t>(n);
    } else if (const char* v = flag_value("--checkpoint-path")) {
      server_options.checkpoint_path = v;
    } else if (const char* v = flag_value("--restore")) {
      restore_path = v;
    } else if (!bad) {
      if (dbfile.empty()) {
        dbfile = argv[i];
      } else {
        queries.emplace_back(argv[i]);
      }
    }
  }
  if (bad || dbfile.empty()) return Usage(argv[0]);

  auto archive = ReadDatabaseFromFile(dbfile);
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }
  // Serve the declarations live: clients stream the data in over TCP.
  auto live = CloneDeclarations(**archive);
  if (!live.ok()) {
    std::fprintf(stderr, "%s\n", live.status().ToString().c_str());
    return 1;
  }
  StreamRuntime runtime(live->get(), runtime_options);

  if (!restore_path.empty()) {
    auto snapshot = ReadFile(restore_path);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "cannot read checkpoint %s\n",
                   restore_path.c_str());
      return 1;
    }
    if (Status s = runtime.Restore(*snapshot); !s.ok()) {
      std::fprintf(stderr, "restore: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("# restored %zu queries at tick %u from %s\n",
                runtime.QueryIds().size(), runtime.tick(),
                restore_path.c_str());
  }
  for (const std::string& q : queries) {
    auto id = runtime.Register(q);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.c_str(),
                   id.status().ToString().c_str());
      return 1;
    }
    std::printf("# q%llu: %s\n", static_cast<unsigned long long>(*id),
                q.c_str());
  }

  if (checkpoint_every > 0) {
    if (server_options.checkpoint_path.empty()) {
      std::fprintf(stderr, "--checkpoint-every needs --checkpoint-path\n");
      return 2;
    }
    server_options.on_tick = [&](const TickResult& r) {
      if (r.t % checkpoint_every != 0) return;
      auto snapshot = runtime.Checkpoint();
      if (!snapshot.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n",
                     snapshot.status().ToString().c_str());
      } else if (Status s = WriteFileAtomic(server_options.checkpoint_path, *snapshot);
                 !s.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", s.ToString().c_str());
      }
    };
  }

  net::Server server(&runtime, server_options);
  runtime.Start();
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_signal == 0 && runtime.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful shutdown: no new ingest, drain what was accepted (the
  // coordinator exits once the closed queue is empty and every covered
  // tick has run), then checkpoint the final state.
  std::printf("\nshutting down: draining ingest queue...\n");
  server.Stop();
  runtime.ingest().Close();
  while (runtime.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  runtime.Stop();
  if (!server_options.checkpoint_path.empty()) {
    auto snapshot = runtime.Checkpoint();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "final checkpoint: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    if (Status s = WriteFileAtomic(server_options.checkpoint_path, *snapshot); !s.ok()) {
      std::fprintf(stderr, "final checkpoint: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("final checkpoint (tick %u) written to %s\n", runtime.tick(),
                server_options.checkpoint_path.c_str());
  }
  std::printf("%s", server.Stats().ToString().c_str());
  return 0;
}

// The open-loop TCP tick feed shared by realtime_tcp and registry_churn:
// one producer connection sends tick i at its schedule slot (due time)
// whether or not tick i-1 finished, and subscriber connections receive
// every pushed µ(q@t). Every timestamp is kept per tick, so latency is
// measured from the due time (generator lateness counts) and each layer
// boundary can be replayed as a span afterwards.
#ifndef PERFBENCH_FEED_H_
#define PERFBENCH_FEED_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/client.h"

namespace perfbench {

/// \brief Per-tick timestamps (NowNs) of one feed, indexed by live tick i
/// (tick first_tick + i). Each array has a single writer thread; readers
/// look only after that writer is joined (the runtime coordinator at
/// Stop()).
struct FeedLog {
  FeedLog(Timestamp first_tick, size_t ticks, size_t subscribers);

  Timestamp first_tick;
  std::vector<int64_t> due;         ///< schedule slot
  std::vector<int64_t> start;       ///< producer began the tick
  std::vector<int64_t> made;        ///< batch ready (inference done)
  std::vector<int64_t> ingest_end;  ///< Client::Ingest returned
  std::vector<int64_t> publish;     ///< on_tick fired (coordinator)
  std::vector<std::vector<int64_t>> receipt;  ///< [subscriber][i]
  /// Every value the tick callback saw, per tick.
  std::vector<std::vector<std::pair<lahar::QueryId, double>>> callback;

  /// The ServerOptions::on_tick hook that fills publish and callback.
  std::function<void(const lahar::TickResult&)> OnTick();
};

/// \brief A served runtime and the feed's connections: a control
/// connection that registered the queries, subscribers to all of them, and
/// one producer.
struct ServedFeed {
  Stack stack;
  std::unique_ptr<lahar::net::Client> control;
  std::unique_ptr<lahar::net::Client> producer;
  std::vector<std::unique_ptr<lahar::net::Client>> subscribers;
  std::vector<lahar::QueryId> ids;  ///< index-aligned with the queries
};

/// Preloads `history` into an empty database of `scenario`'s independent
/// streams, serves it with `log`'s tick hook, registers every query over
/// TCP (each catches up over the history), subscribes `subscribers`
/// connections to all of them, and connects the producer.
lahar::Status ServeFeed(const lahar::Scenario& scenario,
                        const std::vector<lahar::TickBatch>& history,
                        const std::vector<std::string>& queries,
                        size_t subscribers, FeedLog* log, ServedFeed* out);

/// \brief What the feed observed.
struct FeedOutcome {
  size_t produced = 0;             ///< ticks ingested successfully
  std::vector<lahar::TickBatch> sent;
  std::vector<size_t> undelivered;  ///< per subscriber
  /// Values each subscriber received, keyed by query id.
  std::vector<std::map<lahar::QueryId, std::vector<
      std::pair<Timestamp, double>>>> seen;
};

/// Runs the feed: schedules tick i at `t0_ns + i * period_ns`, builds it
/// with `make(i)` on the producer thread, ingests it over `producer`
/// (bounded retry), and drains every subscriber until it has all ticks or
/// a delivery timeout passes. A refused ingest stops the producer (the
/// stream cannot advance past it); the ticks it would have carried count
/// as undelivered. `at_mark` runs on its own thread half a period before
/// tick `mark` is due (counter snapshots that open the measured window).
FeedOutcome RunFeed(FeedLog* log, int64_t t0_ns, int64_t period_ns,
                    const std::function<lahar::TickBatch(size_t)>& make,
                    const ServedFeed& served, size_t mark,
                    const std::function<void()>& at_mark, Report* report);

/// \brief Per-tick samples of the measured ticks [from, produced) that
/// reached every subscriber, in ms.
struct FeedSamples {
  std::vector<double> latency;      ///< due -> last subscriber receipt
  std::vector<double> make;         ///< start -> batch ready
  std::vector<double> ingest_rtt;   ///< batch ready -> Ingest returned
  std::vector<double> to_publish;   ///< Ingest returned -> on_tick (>= 0)
  std::vector<double> fanout;       ///< on_tick -> last receipt
  std::vector<double> late;         ///< due -> start
  std::vector<double> delay;        ///< due -> on_tick
  double wall_s = 0;                ///< first measured due -> last receipt
};

/// Extracts the samples and records the per-tick spans (load.tick with
/// children `make_span`, net.ingest, runtime.execute, net.fanout).
FeedSamples Measure(const FeedLog& log, size_t from, size_t produced,
                    const char* make_span, Tracer* tracer);

/// The end-to-end and per-layer metrics every TCP feed reports.
void AddFeedMetrics(const FeedSamples& s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_FEED_H_

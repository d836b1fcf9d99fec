#include "feed.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace perfbench {

using namespace lahar;

namespace {

constexpr auto kDeliveryTimeout = std::chrono::milliseconds(2000);

Result<std::unique_ptr<net::Client>> ConnectTo(const Stack& stack,
                                               const std::string& tenant) {
  return net::Client::Connect("127.0.0.1", stack.server->port(), tenant);
}

// Client::Ingest with a bounded retry on backpressure, the queue-full
// error a producer is expected to retry. Any other error, a request
// timeout included (the server may already hold that batch), is final.
Status IngestWithRetry(net::Client* client, const TickBatch& batch) {
  Status st;
  for (int attempt = 0; attempt < 200; ++attempt) {
    st = client->Ingest(batch);
    const std::string* wire = st.GetPayload("wire_error");
    if (wire == nullptr || *wire != "backpressure") return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return st;
}

}  // namespace

Status ServeFeed(const Scenario& scenario,
                 const std::vector<TickBatch>& history,
                 const std::vector<std::string>& queries, size_t subscribers,
                 FeedLog* log, ServedFeed* out) {
  std::unique_ptr<EventDatabase> db = Declarations(scenario, false);
  if (db == nullptr) return Status::Internal("declarations failed");
  LAHAR_RETURN_NOT_OK(ApplyAll(db.get(), history));
  LAHAR_RETURN_NOT_OK(
      StartStack(std::move(db), /*workers=*/2, /*serve=*/true, log->OnTick(),
                 &out->stack));
  LAHAR_ASSIGN_OR_RETURN(out->control, ConnectTo(out->stack, "control"));
  for (const std::string& q : queries) {
    LAHAR_ASSIGN_OR_RETURN(net::RegisteredBody reg,
                           out->control->RegisterQuery(q));
    out->ids.push_back(reg.id);
  }
  for (size_t i = 0; i < subscribers; ++i) {
    LAHAR_ASSIGN_OR_RETURN(auto sub,
                           ConnectTo(out->stack, "sub" + std::to_string(i)));
    for (QueryId id : out->ids) LAHAR_RETURN_NOT_OK(sub->Subscribe(id));
    out->subscribers.push_back(std::move(sub));
  }
  LAHAR_ASSIGN_OR_RETURN(out->producer, ConnectTo(out->stack, "producer"));
  return Status::OK();
}

FeedLog::FeedLog(Timestamp first_tick, size_t ticks, size_t subscribers)
    : first_tick(first_tick), due(ticks, 0), start(ticks, 0),
      made(ticks, 0), ingest_end(ticks, 0), publish(ticks, 0),
      receipt(subscribers, std::vector<int64_t>(ticks, 0)),
      callback(ticks) {}

std::function<void(const TickResult&)> FeedLog::OnTick() {
  return [this](const TickResult& r) {
    if (r.t < first_tick || r.t - first_tick >= publish.size()) return;
    publish[r.t - first_tick] = NowNs();
    callback[r.t - first_tick] = r.probs;
  };
}

FeedOutcome RunFeed(FeedLog* log, int64_t t0_ns, int64_t period_ns,
                    const std::function<TickBatch(size_t)>& make,
                    const ServedFeed& served, size_t mark,
                    const std::function<void()>& at_mark, Report* report) {
  const size_t total = log->due.size();
  net::Client* producer = served.producer.get();
  std::vector<net::Client*> subscribers;
  for (const auto& sub : served.subscribers) subscribers.push_back(sub.get());
  for (size_t i = 0; i < total; ++i) {
    log->due[i] = t0_ns + static_cast<int64_t>(i) * period_ns;
  }
  FeedOutcome out;
  out.sent.reserve(total);
  out.undelivered.assign(subscribers.size(), 0);
  out.seen.resize(subscribers.size());
  std::atomic<size_t> produced{0};
  std::string ingest_error;

  std::thread producer_thread([&] {
    for (size_t i = 0; i < total; ++i) {
      SleepUntilNs(log->due[i]);
      log->start[i] = NowNs();
      TickBatch batch = make(i);
      log->made[i] = NowNs();
      Status st = IngestWithRetry(producer, batch);
      log->ingest_end[i] = NowNs();
      if (!st.ok()) {
        ingest_error = "ingest t=" + std::to_string(batch.t) + ": " +
                       st.ToString();
        return;
      }
      out.sent.push_back(std::move(batch));
      produced.store(i + 1);
    }
  });

  std::vector<std::thread> subscriber_threads;
  for (size_t j = 0; j < subscribers.size(); ++j) {
    subscriber_threads.emplace_back([&, j] {
      size_t received = 0;
      while (received < total) {
        auto update = subscribers[j]->NextUpdate(kDeliveryTimeout);
        if (!update.ok()) break;  // timeout or connection loss
        const int64_t now = NowNs();
        if (update->t < log->first_tick) continue;
        const size_t i = update->t - log->first_tick;
        if (i >= total) continue;
        log->receipt[j][i] = now;
        for (const auto& [id, p] : update->probs) {
          out.seen[j][id].emplace_back(update->t, p);
        }
        ++received;
      }
      out.undelivered[j] = total - received;
    });
  }
  std::thread marker([&] {
    SleepUntilNs(log->due[std::min(mark, total - 1)] - period_ns / 2);
    at_mark();
  });
  marker.join();
  producer_thread.join();
  for (std::thread& t : subscriber_threads) t.join();
  out.produced = produced.load();

  report->attempted += total * (1 + subscribers.size());
  if (!ingest_error.empty()) report->Fail(ingest_error);
  for (size_t j = 0; j < subscribers.size(); ++j) {
    for (size_t k = 0; k < out.undelivered[j]; ++k) {
      report->Fail("subscriber " + std::to_string(j) +
                   ": tick not delivered within the timeout");
    }
  }
  return out;
}

FeedSamples Measure(const FeedLog& log, size_t from, size_t produced,
                    const char* make_span, Tracer* tracer) {
  FeedSamples s;
  int64_t last_receipt = 0;
  for (size_t i = from; i < produced; ++i) {
    int64_t receipt = 0;
    bool delivered = log.publish[i] != 0;
    for (const std::vector<int64_t>& r : log.receipt) {
      delivered = delivered && r[i] != 0;
      receipt = std::max(receipt, r[i]);
    }
    if (!delivered) continue;
    last_receipt = std::max(last_receipt, receipt);
    // The server acks an ingest once the batch is queued, so the tick can
    // publish before the producer has read the ack; that gap counts as 0.
    const int64_t executed = std::max(log.ingest_end[i], log.publish[i]);
    s.latency.push_back(MsBetween(log.due[i], receipt));
    s.make.push_back(MsBetween(log.start[i], log.made[i]));
    s.ingest_rtt.push_back(MsBetween(log.made[i], log.ingest_end[i]));
    s.to_publish.push_back(MsBetween(log.ingest_end[i], executed));
    s.fanout.push_back(MsBetween(log.publish[i], receipt));
    s.late.push_back(MsBetween(log.due[i], log.start[i]));
    s.delay.push_back(MsBetween(log.due[i], log.publish[i]));
    const uint64_t t = log.first_tick + i;
    tracer->Record("load.tick", nullptr, t, log.due[i], receipt);
    if (make_span != nullptr) {
      tracer->Record(make_span, "load.tick", t, log.start[i], log.made[i]);
    }
    tracer->Record("net.ingest", "load.tick", t, log.made[i],
                   log.ingest_end[i]);
    tracer->Record("runtime.execute", "load.tick", t, log.ingest_end[i],
                   executed);
    tracer->Record("net.fanout", "load.tick", t, executed, receipt);
  }
  s.wall_s = s.latency.empty() || from >= log.due.size()
                 ? 1.0
                 : MsBetween(log.due[from], last_receipt) / 1e3;
  return s;
}

void AddFeedMetrics(const FeedSamples& s, Report* report) {
  double ingest_ms = 0;
  for (double v : s.ingest_rtt) ingest_ms += v;
  report->Layer("net.ingest_rtt_p50_ms", Percentile(s.ingest_rtt, 0.5));
  report->Layer("net.ingest_rtt_p99_ms", Percentile(s.ingest_rtt, 0.99));
  report->Layer("net.fanout_p50_ms", Percentile(s.fanout, 0.5));
  report->Layer("net.fanout_p99_ms", Percentile(s.fanout, 0.99));
  report->Layer("runtime.ingest_to_publish_p50_ms",
                Percentile(s.to_publish, 0.5));
  report->Layer("runtime.ingest_to_publish_p99_ms",
                Percentile(s.to_publish, 0.99));
  report->Layer("runtime.push_blocked_frac", ingest_ms / (s.wall_s * 1e3));
  report->Layer("runtime.tick_delay_mean_ms", Mean(s.delay));
  report->Layer("runtime.tick_delay_p99_ms", Percentile(s.delay, 0.99));
  report->Layer("load.late_ms_p99", Percentile(s.late, 0.99));
  // The end-to-end tail, reported without a bound: on a shared VM its run
  // to run spread (vCPU preemption; under churn, the mix of registration
  // and checkpoint stalls) is wider than any bound a gate could hold.
  report->Layer("latency_p99_ms", Percentile(s.latency, 0.99));
}

}  // namespace perfbench

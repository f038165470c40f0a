// The live telemetry plane's contracts (src/serve/): the pacing clock maps
// wall time to sim time correctly and stays continuous across speed changes,
// the embedded HTTP server round-trips requests, and -- the load-bearing one
// -- a paced daemon replay is bit-identical to the batch run of the same
// config and seed while a concurrent scraper watches monotone counters.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/actuate/async_actuator.h"
#include "src/obs/metrics.h"
#include "src/serve/daemon.h"
#include "src/serve/http.h"
#include "src/serve/pacing.h"
#include "src/sim/harness.h"
#include "src/sim/report.h"
#include "src/sim/simulator.h"

namespace faro {
namespace {

// Pin the shared pool before first use (harness_determinism_test idiom).
const bool kForcePoolSize = [] {
  setenv("FARO_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// --- PacingClock -----------------------------------------------------------

TEST(PacingClockTest, MapsWallElapsedToSimTimeAtSpeed) {
  const auto before = PacingClock::Clock::now();
  PacingClock clock(100.0);
  // The anchor was taken between `before` and now; ten wall seconds past
  // `before` is therefore at most ten seconds past the anchor.
  const double target = clock.TargetSimTimeAt(before + std::chrono::seconds(10));
  EXPECT_LE(target, 100.0 * 10.0);
  EXPECT_GE(target, 100.0 * 9.0);  // Reset itself took far less than a second
}

TEST(PacingClockTest, ClampsSpeedToContractRange) {
  PacingClock clock(0.25);  // below the 1x floor
  EXPECT_EQ(clock.speed(), 1.0);
  EXPECT_EQ(clock.SetSpeed(1e9), 10000.0);
  EXPECT_EQ(clock.speed(), 10000.0);
  EXPECT_EQ(clock.SetSpeed(-3.0), 1.0);
}

TEST(PacingClockTest, TargetNeverGoesBackwards) {
  PacingClock clock(5000.0);
  double last = 0.0;
  // Hammer speed changes; the re-anchoring must keep the target continuous
  // and non-decreasing -- a replay can never be asked to step backwards.
  for (int i = 0; i < 200; ++i) {
    clock.SetSpeed(i % 2 == 0 ? 1.0 : 10000.0);
    const double target = clock.TargetSimTime();
    EXPECT_GE(target, last) << "iteration " << i;
    last = target;
  }
}

TEST(PacingClockTest, WallInstantBeforeAnchorClampsToZero) {
  PacingClock clock(100.0);
  EXPECT_EQ(clock.TargetSimTimeAt(PacingClock::Clock::now() - std::chrono::hours(1)),
            0.0);
}

// --- HttpServer ------------------------------------------------------------

TEST(HttpServerTest, RoundTripsRequestsAndStopsIdempotently) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0, [](const HttpRequest& request) {
    HttpResponse response;
    if (request.path == "/nope") {
      response.status = 404;
      return response;
    }
    response.body = request.method + " " + request.path + " q=" + request.query +
                    " b=" + request.body;
    return response;
  }));
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpFetch(server.port(), "GET", "/echo?tail=3", "", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "GET /echo q=tail=3 b=");

  ASSERT_TRUE(HttpFetch(server.port(), "POST", "/speed", "speed=250", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "POST /speed q= b=speed=250");

  ASSERT_TRUE(HttpFetch(server.port(), "GET", "/nope", "", &status, &body));
  EXPECT_EQ(status, 404);
  EXPECT_EQ(server.requests_served(), 3u);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

// A half-open client -- connected, request never completed, socket held open
// -- must not wedge the serial accept loop: the per-connection read deadline
// drops it with 408 and the next well-formed request is served normally.
TEST(HttpServerTest, HalfOpenConnectionCannotWedgeAcceptLoop) {
  HttpServer server;
  server.set_io_timeout_ms(100);
  ASSERT_TRUE(server.Start(0, [](const HttpRequest&) { return HttpResponse{}; }));

  // Raw half-open connection: partial request line, no terminating blank
  // line, held open across the whole test.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char partial[] = "GET /metr";
  ASSERT_GT(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL), 0);

  // A normal request issued while the wedge attempt is live: it must be
  // served (after at most one 100 ms deadline), not starve.
  const auto before = std::chrono::steady_clock::now();
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpFetch(server.port(), "GET", "/ok", "", &status, &body));
  EXPECT_EQ(status, 200);
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            5000);
  EXPECT_GE(server.connections_timed_out(), 1u);
  ::close(fd);
  server.Stop();
}

// Oversize requests are rejected with a status, never buffered: headers past
// 16 KiB get 431, a declared body past 1 MiB gets 413.
TEST(HttpServerTest, RejectsOversizeHeadersAndBodies) {
  HttpServer server;
  server.set_io_timeout_ms(2000);
  ASSERT_TRUE(server.Start(0, [](const HttpRequest&) { return HttpResponse{}; }));

  int status = 0;
  std::string body;
  const std::string huge_query(32 << 10, 'q');
  ASSERT_TRUE(HttpFetch(server.port(), "GET", "/x?" + huge_query, "", &status, &body));
  EXPECT_EQ(status, 431);

  // Declared Content-Length over the cap: rejected from the declaration
  // alone, before any body bytes are read.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request =
      "POST /speed HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: 2097152\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  std::string raw;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(raw.find("413"), std::string::npos) << raw;
  server.Stop();
}

// --- Replay determinism ----------------------------------------------------

ExperimentSetup SmallSetup() {
  ExperimentSetup setup;
  setup.num_jobs = 3;
  setup.right_size_replicas = 10.0;
  setup.capacity = 8.0;
  setup.trials = 1;
  setup.days = 3;
  return setup;
}

// Truncate the eval traces so one run is ~3600 sim-seconds.
void Truncate(PreparedWorkload& workload, size_t minutes) {
  for (SimJobConfig& job : workload.jobs) {
    if (job.arrival_rate_per_min.size() > minutes) {
      job.arrival_rate_per_min = job.arrival_rate_per_min.Slice(0, minutes);
    }
  }
}

std::string SummaryCsvString(const RunResult& result, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("faro_serve_test_" + tag + ".csv"))
          .string();
  if (!WriteSummaryCsv(path, result)) {
    return "<write failed>";
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::filesystem::remove(path);
  return buffer.str();
}

double ScrapeGaugeOrCounter(const std::string& exposition, const std::string& name) {
  size_t pos = 0;
  while ((pos = exposition.find(name, pos)) != std::string::npos) {
    const size_t after = pos + name.size();
    if ((pos == 0 || exposition[pos - 1] == '\n') && after < exposition.size() &&
        exposition[after] == ' ') {
      return std::strtod(exposition.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return -1.0;
}

// A paced replay at high speed, scraped concurrently over HTTP, finishes with
// a summary CSV byte-identical to the batch run of the same config and seed
// -- pacing throttles event *delivery*, never simulation outcomes -- and the
// scraper only ever sees the windows-closed counter move forward.
TEST(ServeDeterminismTest, PacedDaemonBitIdenticalToBatchUnderScrape) {
  ASSERT_TRUE(kForcePoolSize);
  const ExperimentSetup setup = SmallSetup();
  PreparedWorkload workload = PrepareWorkload(setup);
  Truncate(workload, 60);

  // Batch reference: same BuildSimConfig, no observer, no pacing.
  SimConfig batch_config = BuildSimConfig(setup, setup.seed);
  batch_config.obs_metrics = true;
  const auto batch_policy = MakePolicy("Faro-FairSum", nullptr);
  const RunResult batch = RunSimulation(batch_config, workload.jobs, *batch_policy);
  ASSERT_GT(batch.events_processed, 0u);

  // Live run: fresh policy instance (policies are stateful), paced at the
  // 10000x ceiling, scraped from this thread while the replay thread runs.
  SimConfig live_config = BuildSimConfig(setup, setup.seed);
  live_config.obs_metrics = true;
  const auto live_policy = MakePolicy("Faro-FairSum", nullptr);
  ServeOptions options;
  options.speed = 10000.0;
  options.poll_ms = 1;
  ReplayDaemon daemon(live_config, workload.jobs, *live_policy, options);
  ASSERT_TRUE(daemon.StartServer());

  RunResult live;
  std::thread replay([&] { live = daemon.Run(); });
  double last_windows = -1.0;
  size_t scrapes = 0;
  while (!daemon.run_complete()) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(HttpFetch(daemon.port(), "GET", "/metrics", "", &status, &body));
    ASSERT_EQ(status, 200);
    const double windows =
        ScrapeGaugeOrCounter(body, "faro_serve_windows_closed_total");
    EXPECT_GE(windows, last_windows) << "counter went backwards";
    last_windows = windows;
    ++scrapes;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  replay.join();
  EXPECT_GT(scrapes, 0u);

  // Bit-identity: aggregate fields and the full summary CSV byte-for-byte.
  EXPECT_EQ(live.events_processed, batch.events_processed);
  EXPECT_EQ(live.cluster_lost_utility, batch.cluster_lost_utility);
  EXPECT_EQ(live.cluster_burn_alerts_fast, batch.cluster_burn_alerts_fast);
  EXPECT_EQ(live.cluster_burn_alerts_slow, batch.cluster_burn_alerts_slow);
  EXPECT_EQ(SummaryCsvString(live, "live"), SummaryCsvString(batch, "batch"));

  // The telemetry plane agrees with the finished run.
  int status = 0;
  std::string health;
  ASSERT_TRUE(HttpFetch(daemon.port(), "GET", "/healthz", "", &status, &health));
  EXPECT_EQ(status, 200);
  EXPECT_NE(health.find("\"done\":true"), std::string::npos) << health;
  const uint64_t feed_onsets = daemon.alert_onsets();
  EXPECT_EQ(feed_onsets, batch.cluster_burn_alerts_fast + batch.cluster_burn_alerts_slow);

  // POST /speed round-trip (the replay is done; this just exercises the path).
  std::string body;
  ASSERT_TRUE(HttpFetch(daemon.port(), "POST", "/speed", "2500", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("2500"), std::string::npos) << body;
  ASSERT_TRUE(HttpFetch(daemon.port(), "POST", "/speed", "speed=banana", &status, &body));
  EXPECT_EQ(status, 400);
}

// Live async actuation: a real reconciling thread (src/actuate/) races the
// paced replay under TSan. Three contracts at once: (1) the run stays
// byte-identical to batch -- the actuator converges its own cluster model,
// never simulation state; (2) crash consistency -- at every polled instant,
// each published generation is either fully applied (every job's target
// issued in one critical section), fenced, superseded, or still pending,
// never torn; (3) the end-of-run duplicate re-publish is discarded by the
// generation fence.
TEST(ServeDeterminismTest, LiveActuatorRacesReplayWithoutTearingOrDivergence) {
  ASSERT_TRUE(kForcePoolSize);
  const ExperimentSetup setup = SmallSetup();
  PreparedWorkload workload = PrepareWorkload(setup);
  Truncate(workload, 60);
  const size_t num_jobs = workload.jobs.size();

  const SimConfig batch_config = BuildSimConfig(setup, setup.seed);
  const auto batch_policy = MakePolicy("Faro-FairSum", nullptr);
  const RunResult batch = RunSimulation(batch_config, workload.jobs, *batch_policy);

  const SimConfig live_config = BuildSimConfig(setup, setup.seed);
  const auto live_policy = MakePolicy("Faro-FairSum", nullptr);
  ServeOptions options;
  options.speed = 10000.0;
  options.poll_ms = 1;
  options.live_actuator = true;
  ReplayDaemon daemon(live_config, workload.jobs, *live_policy, options);
  ASSERT_TRUE(daemon.StartServer());
  const AsyncActuator* actuator = daemon.actuator();
  ASSERT_NE(actuator, nullptr);

  RunResult live;
  std::thread replay([&] { live = daemon.Run(); });
  while (!daemon.run_complete()) {
    // Poll the op log while the actuator races the replay: an applied entry
    // must already carry every job's write (the first pass runs whole inside
    // one critical section); an unprocessed one must carry none.
    for (const ActuatorLogEntry& entry : actuator->op_log()) {
      if (entry.applied) {
        EXPECT_GE(entry.jobs_applied, num_jobs) << "torn generation " << entry.generation;
      } else {
        EXPECT_EQ(entry.jobs_applied, 0u) << "torn generation " << entry.generation;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replay.join();

  // (1) Byte-identity with the batch reference.
  EXPECT_EQ(live.events_processed, batch.events_processed);
  EXPECT_EQ(live.cluster_lost_utility, batch.cluster_lost_utility);
  EXPECT_EQ(SummaryCsvString(live, "actuated"), SummaryCsvString(batch, "reference"));

  // (2) Every generation landed in exactly one terminal state; accepted ones
  // account one-for-one for the reconciler's publish count.
  const std::vector<ActuatorLogEntry> log = actuator->op_log();
  ASSERT_FALSE(log.empty());
  uint64_t applied = 0, fenced = 0, superseded = 0;
  for (const ActuatorLogEntry& entry : log) {
    EXPECT_EQ((entry.applied ? 1 : 0) + (entry.fenced ? 1 : 0) +
                  (entry.superseded ? 1 : 0),
              1)
        << "generation " << entry.generation << " not in exactly one state";
    applied += entry.applied;
    fenced += entry.fenced;
    superseded += entry.superseded;
  }
  const ReconcileTelemetry telemetry = actuator->telemetry();
  EXPECT_EQ(applied + superseded, telemetry.generations_published);
  EXPECT_TRUE(actuator->converged());
  EXPECT_GT(actuator->generation(), 0u);

  // (3) The wind-down duplicate was fenced, and the /actuator endpoint
  // agrees: no torn entries, fence count visible to scrapers.
  EXPECT_GE(fenced, 1u);
  EXPECT_EQ(fenced, telemetry.fence_rejections);
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpFetch(daemon.port(), "GET", "/actuator", "", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"torn\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"pending\":0"), std::string::npos) << body;
  EXPECT_NE(body.find("\"converged\":true"), std::string::npos) << body;
}

// Stepping in arbitrary small increments is a pure refactor of Run:
// Init + StepUntil(+inf) + Finish IS the batch loop, and any finer until_s
// schedule must land on the same result bit for bit.
TEST(ServeDeterminismTest, SteppedRunMatchesBatch) {
  ASSERT_TRUE(kForcePoolSize);
  const ExperimentSetup setup = SmallSetup();
  PreparedWorkload workload = PrepareWorkload(setup);
  Truncate(workload, 60);
  const SimConfig config = BuildSimConfig(setup, setup.seed);

  const auto batch_policy = MakePolicy("Faro-FairSum", nullptr);
  const RunResult batch = RunSimulation(config, workload.jobs, *batch_policy);

  const auto stepped_policy = MakePolicy("Faro-FairSum", nullptr);
  std::unique_ptr<SimStepper> stepper =
      MakeSimStepper(config, workload.jobs, *stepped_policy);
  double until = 0.0;
  while (!stepper->done()) {
    until += 137.0;  // deliberately misaligned with every control interval
    stepper->StepUntil(until);
    EXPECT_LE(stepper->now_s(), stepper->duration_s());
  }
  const RunResult stepped = stepper->Finish();

  EXPECT_EQ(stepped.events_processed, batch.events_processed);
  EXPECT_EQ(stepped.cluster_lost_utility, batch.cluster_lost_utility);
  EXPECT_EQ(SummaryCsvString(stepped, "stepped"), SummaryCsvString(batch, "stepped_batch"));
}

}  // namespace
}  // namespace faro

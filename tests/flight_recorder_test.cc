// Flight-recorder tests: complete-JSON line discipline (empty fields,
// oversized truncation, concurrent writers), ring wrap, the crash-dump
// path, the fatal-signal fork/abort schedule (the black box must land on
// disk and parse as JSONL after an abort), the stall watchdog's
// detect/re-arm cycle, and the service-level event stream.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "obs/flight_recorder.h"
#include "obs/watchdog.h"
#include "service/query_service.h"
#include "workload/generators.h"

namespace simq {
namespace {

// The crash schedule forks; forking a process with live pool threads can
// deadlock the child in malloc. SIMQ_THREADS=1 keeps the global pool
// inline (same idiom as net_protocol_test).
const bool kSingleThreadPinned = [] {
  ::setenv("SIMQ_THREADS", "1", 1);
  return true;
}();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// Minimal structural JSON check: one top-level object, balanced braces
// outside strings, valid escape positions. Catches truncated or torn
// lines without a full parser.
bool IsCompleteJsonObject(const std::string& line) {
  if (line.empty() || line.front() != '{') {
    return false;
  }
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0 && i + 1 != line.size()) {
        return false;  // trailing bytes after the object
      }
    }
  }
  return depth == 0 && !in_string;
}

// --- recorder line discipline ---

TEST(FlightRecorderTest, LinesAreCompleteOrderedJson) {
  obs::FlightRecorder recorder(64);
  recorder.Record("checkpoint", nullptr);
  recorder.Record("checkpoint", "");
  recorder.Recordf("query", "\"fp\":\"%016llx\",\"ms\":%.3f", 0xabcULL, 1.5);

  const std::vector<std::string> lines = SplitLines(recorder.DumpJsonl());
  ASSERT_EQ(lines.size(), 3u);
  int64_t last_seq = -1;
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
    const size_t at = line.find("\"seq\":");
    ASSERT_NE(at, std::string::npos);
    const int64_t seq = std::atoll(line.c_str() + at + 6);
    EXPECT_GT(seq, last_seq);  // oldest first, strictly ordered
    last_seq = seq;
    EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos);
  }
  // Empty fields leave no trailing comma.
  EXPECT_NE(lines[0].find("\"ev\":\"checkpoint\"}"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ev\":\"checkpoint\"}"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ms\":1.500"), std::string::npos);
  EXPECT_EQ(recorder.events_recorded(), 3);
}

TEST(FlightRecorderTest, RingWrapKeepsTheMostRecent) {
  obs::FlightRecorder recorder(8);
  for (int i = 0; i < 20; ++i) {
    recorder.Recordf("tick", "\"i\":%d", i);
  }
  const std::vector<std::string> lines = SplitLines(recorder.DumpJsonl());
  ASSERT_EQ(lines.size(), 8u);
  for (size_t k = 0; k < lines.size(); ++k) {
    EXPECT_TRUE(IsCompleteJsonObject(lines[k])) << lines[k];
    char expect[32];
    std::snprintf(expect, sizeof(expect), "\"i\":%d}",
                  12 + static_cast<int>(k));
    EXPECT_NE(lines[k].find(expect), std::string::npos) << lines[k];
  }
}

TEST(FlightRecorderTest, OversizedFieldsTruncateToValidJson) {
  obs::FlightRecorder recorder(8);
  std::string huge = "\"note\":\"";
  huge.append(2 * obs::FlightRecorder::kLineBytes, 'x');
  huge += "\"";
  recorder.Record("query", huge.c_str());
  const std::vector<std::string> lines = SplitLines(recorder.DumpJsonl());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(IsCompleteJsonObject(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"truncated\":true"), std::string::npos);
  EXPECT_EQ(lines[0].find("xxx"), std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearLines) {
  obs::FlightRecorder recorder(1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Recordf("tick", "\"t\":%d,\"i\":%d", t, i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(recorder.events_recorded(), kThreads * kPerThread);
  const std::vector<std::string> lines = SplitLines(recorder.DumpJsonl());
  EXPECT_LE(lines.size(), 1024u);
  EXPECT_GT(lines.size(), 0u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
  }
}

TEST(FlightRecorderTest, CrashPathDumpWritesTheRing) {
  obs::FlightRecorder recorder(16);
  EXPECT_FALSE(recorder.DumpToCrashPath());  // unset path: no-op
  const std::string path = TempPath("flight_on_demand.jsonl");
  std::remove(path.c_str());
  recorder.SetCrashDumpPath(path);
  EXPECT_STREQ(recorder.crash_dump_path(), path.c_str());
  recorder.Recordf("conn", "\"event\":\"open\",\"active\":%d", 1);
  ASSERT_TRUE(recorder.DumpToCrashPath());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 1);
}

// --- the fatal path, end to end ---

// Child: route the process black box at dump files, run real queries
// through a service, prove SIGUSR1 dumps-and-continues, then abort. The
// parent asserts the SIGABRT exit, and that the crash dump is valid
// JSONL holding the admitted queries.
TEST(FlightRecorderCrashTest, AbortLeavesParseableJsonlWithLastQueries) {
  const std::string usr1_path = TempPath("flight_usr1.jsonl");
  const std::string crash_path = TempPath("flight_crash.jsonl");
  std::remove(usr1_path.c_str());
  std::remove(crash_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child. No gtest assertions here; precondition failures exit with a
    // status the parent will reject.
    obs::FlightRecorder& flight = obs::FlightRecorder::Global();
    flight.SetCrashDumpPath(usr1_path);
    obs::FlightRecorder::InstallCrashHandlers(&flight);

    Database db;
    if (!db.CreateRelation("r").ok() ||
        !db.BulkLoad("r", workload::RandomWalkSeries(64, 32, 7)).ok()) {
      _exit(3);
    }
    QueryService service(std::move(db));
    if (!service.ExecuteText("NEAREST 3 r TO #walk1").ok() ||
        !service.ExecuteText("RANGE r WITHIN 2.0 OF #walk0").ok()) {
      _exit(4);
    }
    ::raise(SIGUSR1);  // on-demand dump; the process must keep flying
    if (::access(usr1_path.c_str(), R_OK) != 0) {
      _exit(5);
    }
    flight.SetCrashDumpPath(crash_path);
    std::abort();  // the fatal path dumps, then the re-raise kills us
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "exit status " << wstatus;
  EXPECT_EQ(WTERMSIG(wstatus), SIGABRT);

  // Surviving SIGUSR1 is proven by the child reaching abort() at all;
  // the dump it left must parse too.
  std::ifstream usr1(usr1_path);
  ASSERT_TRUE(usr1.is_open());
  std::string line;
  while (std::getline(usr1, line)) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
  }

  std::ifstream in(crash_path);
  ASSERT_TRUE(in.is_open());
  int lines = 0;
  bool saw_admit = false;
  bool saw_query = false;
  while (std::getline(in, line)) {
    ASSERT_TRUE(IsCompleteJsonObject(line)) << line;
    saw_admit = saw_admit ||
                line.find("\"ev\":\"query_admit\"") != std::string::npos;
    saw_query = saw_query || (line.find("\"ev\":\"query\"") !=
                                  std::string::npos &&
                              line.find("\"status\":\"ok\"") !=
                                  std::string::npos);
    ++lines;
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_query);
}

// --- service event stream ---

TEST(FlightRecorderServiceTest, MutationsAndQueriesLandInTheRing) {
  obs::FlightRecorder flight(256);
  ServiceOptions options;
  options.flight_recorder = &flight;
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(64, 32, 7)).ok());
  QueryService service(std::move(db), options);
  TimeSeries extra;
  extra.id = "extra";
  extra.values.assign(32, 0.25);
  const Result<int64_t> inserted = service.Insert("r", extra);
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(service.ExecuteText("NEAREST 3 r TO #walk1").ok());
  ASSERT_TRUE(service.Delete("r", inserted.value()).ok());

  const std::string dump = flight.DumpJsonl();
  EXPECT_NE(dump.find("\"ev\":\"mutation\""), std::string::npos);
  EXPECT_NE(dump.find("\"op\":\"insert\""), std::string::npos);
  EXPECT_NE(dump.find("\"op\":\"delete\""), std::string::npos);
  EXPECT_NE(dump.find("\"ev\":\"query_admit\""), std::string::npos);
  EXPECT_NE(dump.find("\"ev\":\"query\""), std::string::npos);
  EXPECT_NE(dump.find("\"rows_scanned\":"), std::string::npos);
  for (const std::string& line : SplitLines(dump)) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
  }
}

// The `ms` value of an event line, or -1 when the line has none.
double EventMs(const std::string& line) {
  const size_t at = line.find("\"ms\":");
  if (at == std::string::npos) {
    return -1.0;
  }
  return std::strtod(line.c_str() + at + 5, nullptr);
}

TEST(FlightRecorderServiceTest, BulkLoadAndCheckpointCarryTheirCost) {
  obs::FlightRecorder flight(256);
  ServiceOptions options;
  options.flight_recorder = &flight;
  options.snapshot_path = ::testing::TempDir() + "/flight_cost_" +
                          std::to_string(::getpid()) + ".simqdb";
  QueryService service(Database(), options);
  ASSERT_TRUE(service.CreateRelation("r").ok());
  ASSERT_TRUE(
      service.BulkLoad("r", workload::RandomWalkSeries(300, 64, 9)).ok());
  ASSERT_TRUE(service.Checkpoint().ok());
  std::remove(options.snapshot_path.c_str());

  int bulk_loads = 0;
  int checkpoints = 0;
  for (const std::string& line : SplitLines(flight.DumpJsonl())) {
    EXPECT_TRUE(IsCompleteJsonObject(line)) << line;
    if (line.find("\"op\":\"bulk_load\"") != std::string::npos) {
      ++bulk_loads;
      EXPECT_NE(line.find("\"rows\":300,"), std::string::npos) << line;
      EXPECT_GE(EventMs(line), 0.0) << line;
    }
    if (line.find("\"ev\":\"checkpoint\"") != std::string::npos) {
      ++checkpoints;
      EXPECT_GE(EventMs(line), 0.0) << line;
    }
  }
  EXPECT_EQ(bulk_loads, 1);
  EXPECT_EQ(checkpoints, 1);
}

// --- stall watchdog ---

TEST(WatchdogTest, DetectsStallsAndRearmsAfterProgress) {
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> pending{1};
  std::atomic<int> fired{0};
  double last_stalled_ms = 0.0;
  obs::StallWatchdog::Options options;
  options.poll_interval_ms = 5.0;
  options.stall_after_ms = 40.0;
  obs::StallWatchdog watchdog(
      options,
      [&] {
        obs::StallWatchdog::Probe probe;
        probe.completed = completed.load();
        probe.pending = pending.load();
        return probe;
      },
      [&](double stalled_ms, const obs::StallWatchdog::Probe& probe) {
        last_stalled_ms = stalled_ms;
        EXPECT_GT(probe.pending, 0);
        fired.fetch_add(1);
      });
  watchdog.Start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(fired.load(), 1);  // fires once per stall, not per poll
  EXPECT_GE(last_stalled_ms, 40.0);
  EXPECT_EQ(watchdog.stalls_detected(), 1);

  // Progress re-arms; a second freeze is a second stall.
  completed.fetch_add(1);
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fired.load(), 2);
  EXPECT_EQ(watchdog.stalls_detected(), 2);
  watchdog.Stop();
}

TEST(WatchdogTest, StaysQuietWhenIdleOrProgressing) {
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> pending{0};
  std::atomic<int> fired{0};
  obs::StallWatchdog::Options options;
  options.poll_interval_ms = 5.0;
  options.stall_after_ms = 30.0;
  obs::StallWatchdog watchdog(
      options,
      [&] {
        obs::StallWatchdog::Probe probe;
        // Progressing whenever pending: completed advances every probe.
        probe.completed =
            pending.load() > 0 ? completed.fetch_add(1) + 1 : completed.load();
        probe.pending = pending.load();
        return probe;
      },
      [&](double, const obs::StallWatchdog::Probe&) { fired.fetch_add(1); });
  watchdog.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // idle
  pending.store(1);  // busy but progressing
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  watchdog.Stop();
  EXPECT_EQ(fired.load(), 0);
  EXPECT_EQ(watchdog.stalls_detected(), 0);
}

TEST(WatchdogTest, ServiceWatchdogRunsCleanWithoutFalseStalls) {
  ServiceOptions options;
  options.watchdog_stall_after_ms = 50.0;
  options.watchdog_poll_interval_ms = 5.0;
  Database db;
  ASSERT_TRUE(db.CreateRelation("r").ok());
  ASSERT_TRUE(
      db.BulkLoad("r", workload::RandomWalkSeries(64, 32, 7)).ok());
  QueryService service(std::move(db), options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.ExecuteText("NEAREST 3 r TO #walk1").ok());
  }
  // Idle well past the stall threshold: pending is zero, so no stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(
      service.metrics_registry()
          ->GetCounter("simq_watchdog_stalls_total")
          ->Value(),
      0);
}

}  // namespace
}  // namespace simq

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

/// End-to-end integration tests for the lr_cli binary: generate an
/// instance file, inspect it, run algorithms over it, and model-check it —
/// all through the real command-line interface.  The binary path is
/// injected by CMake as LR_CLI_PATH.

#ifndef LR_CLI_PATH
#error "LR_CLI_PATH must be defined by the build system ($<TARGET_FILE:lr_cli>)"
#endif

namespace {

// A missing binary must FAIL each test, not skip it: a fatal failure in a
// global Environment::SetUp makes gtest emit "[  SKIPPED ]", which matches
// the SKIP_REGULAR_EXPRESSION that gtest_discover_tests registers, so CTest
// would report the suite green. A fixture SetUp failure marks tests failed.
class CliIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(std::filesystem::exists(LR_CLI_PATH))
        << "lr_cli binary not found at LR_CLI_PATH=" << LR_CLI_PATH
        << "; build the lr_cli target first";
  }
};

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& args) {
  const std::string command = std::string(LR_CLI_PATH) + " " + args + " 2>&1";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  return {WEXITSTATUS(status), std::move(output)};
}

std::string temp_file(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST_F(CliIntegrationTest, GenInfoRoundTrip) {
  const std::string path = temp_file("cli_it_gen.lri");
  const auto gen = run_command("gen chain 8 1 " + path);
  EXPECT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("Graph(n=8, m=7)"), std::string::npos) << gen.output;

  const auto info = run_command("info " + path);
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("bad nodes   : 7"), std::string::npos) << info.output;
  EXPECT_NE(info.output.find("acyclic     : yes"), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, RunProducesDotAndConverges) {
  const std::string path = temp_file("cli_it_run.lri");
  ASSERT_EQ(run_command("gen random 12 3 " + path).exit_code, 0);
  for (const std::string algo : {"pr", "newpr", "fr"}) {
    const auto run = run_command("run " + path + " " + algo + " lowest");
    EXPECT_EQ(run.exit_code, 0) << algo << ": " << run.output;
    EXPECT_NE(run.output.find("destination_oriented=yes"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("digraph G {"), std::string::npos) << run.output;
  }
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, ModelCheckReportsAcyclicEverywhere) {
  const std::string path = temp_file("cli_it_mc.lri");
  ASSERT_EQ(run_command("gen star 7 1 " + path).exit_code, 0);
  const auto mc = run_command("modelcheck " + path + " pr");
  EXPECT_EQ(mc.exit_code, 0) << mc.output;
  EXPECT_NE(mc.output.find("acyclic everywhere   : yes"), std::string::npos) << mc.output;
  std::filesystem::remove(path);
}

TEST_F(CliIntegrationTest, SweepIsDeterministicAcrossThreadCounts) {
  const std::string spec_path = temp_file("cli_it_sweep.sweep");
  {
    // 2 x 2 x 3 x 2 x 3 = 72 runs >= the 50-run acceptance floor.
    std::ofstream spec(spec_path);
    spec << "topology  = chain, random\n"
            "size      = 8, 16\n"
            "algorithm = fr, pr, newpr\n"
            "scheduler = lowest, random\n"
            "seed      = 1..3\n";
  }
  const std::string records1 = temp_file("cli_it_sweep1.csv");
  const std::string records4 = temp_file("cli_it_sweep4.csv");
  const auto serial = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(serial.exit_code, 0) << serial.output;
  const auto parallel = run_command("sweep " + spec_path + " --threads 4 --records " + records4);
  EXPECT_EQ(parallel.exit_code, 0) << parallel.output;

  // Identical aggregate CSV modulo the stderr progress lines: "sweep:"
  // reports thread count and wall time, and "cache:" the most workloads
  // held at once, which depends on the thread count.  Its hit and miss
  // counts do not: every workload is built once (12 workloads, 72 runs).
  const auto strip_progress = [](const std::string& output) {
    std::string kept;
    std::istringstream iss(output);
    std::string line;
    while (std::getline(iss, line)) {
      if (line.rfind("sweep:", 0) != 0 && line.rfind("cache:", 0) != 0) kept += line + "\n";
    }
    return kept;
  };
  EXPECT_EQ(strip_progress(serial.output), strip_progress(parallel.output));
  const auto hits_and_misses = [](const std::string& output) {
    std::smatch match;
    const std::regex counts(R"(cache: \d+ workload\(s\) resident, (\d+ hit\(s\), \d+ miss\(es\)))");
    return std::regex_search(output, match, counts) ? match[1].str() : "no cache line";
  };
  EXPECT_EQ(hits_and_misses(serial.output), "60 hit(s), 12 miss(es)") << serial.output;
  EXPECT_EQ(hits_and_misses(parallel.output), hits_and_misses(serial.output)) << parallel.output;
  EXPECT_NE(serial.output.find("72 runs"), std::string::npos) << serial.output;
  EXPECT_NE(serial.output.find("topology,size,algorithm,scheduler,runs"), std::string::npos);

  std::ifstream r1(records1), r4(records4);
  std::stringstream s1, s4;
  s1 << r1.rdbuf();
  s4 << r4.rdbuf();
  const std::string csv1 = s1.str();
  const std::string csv4 = s4.str();
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  // 72 record rows + header.
  EXPECT_EQ(std::count(csv1.begin(), csv1.end(), '\n'), 73);

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records4);
}

TEST_F(CliIntegrationTest, SweepWritesJsonAndRejectsBadSpec) {
  const std::string spec_path = temp_file("cli_it_sweep_bad.sweep");
  {
    std::ofstream spec(spec_path);
    spec << "topology = moebius\nsize = 8\nalgorithm = pr\n";
  }
  const auto bad = run_command("sweep " + spec_path);
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.output.find("error:"), std::string::npos) << bad.output;
  {
    std::ofstream spec(spec_path);
    spec << "topology = chain\nsize = 8\nalgorithm = pr\n";
  }
  const std::string json_path = temp_file("cli_it_sweep.json");
  const auto good = run_command("sweep " + spec_path + " --json " + json_path);
  EXPECT_EQ(good.exit_code, 0) << good.output;
  std::ifstream json(json_path);
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"algorithm\": \"pr\""), std::string::npos) << contents.str();
  EXPECT_EQ(run_command("sweep /definitely/not/here.sweep").exit_code, 1);
  EXPECT_EQ(run_command("sweep " + spec_path + " --bogus 1").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --cache-cap 1").exit_code, 2);  // no such flag
  EXPECT_EQ(run_command("sweep " + spec_path + " --threads 1000000").exit_code, 2);  // > 256
  std::filesystem::remove(spec_path);
  std::filesystem::remove(json_path);
}

TEST_F(CliIntegrationTest, UsageOnBadArguments) {
  EXPECT_EQ(run_command("").exit_code, 2);
  EXPECT_EQ(run_command("frobnicate").exit_code, 2);
  EXPECT_EQ(run_command("gen bogus-family 8 1 /tmp/x.lri").exit_code, 2);
}

TEST_F(CliIntegrationTest, GracefulErrorOnMissingFile) {
  const auto result = run_command("info /definitely/not/here.lri");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error:"), std::string::npos);
}

// Lines outside the sweep determinism contract: "sweep:"/"cache:" vary
// with deployment and timing, "note:" reports worker clamping, and
// "shard N retry:" reports absorbed worker crashes.
std::string strip_sweep_progress(const std::string& output) {
  std::string kept;
  std::istringstream iss(output);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.rfind("sweep:", 0) == 0 || line.rfind("cache:", 0) == 0 ||
        line.rfind("note:", 0) == 0 || line.rfind("shard ", 0) == 0) {
      continue;
    }
    kept += line + "\n";
  }
  return kept;
}

std::string write_small_sweep_spec(const char* name) {
  const std::string spec_path = temp_file(name);
  std::ofstream spec(spec_path);
  // 2 x 1 x 2 x 1 x 3 = 12 runs: small enough to stay fast, large
  // enough to spread across 4 worker processes.
  spec << "topology  = chain, random\n"
          "size      = 8\n"
          "algorithm = fr, pr\n"
          "seed      = 1..3\n";
  return spec_path;
}

TEST_F(CliIntegrationTest, SweepWorkerRejectsDirectInvocation) {
  // The sweep-worker subcommand is an internal contract between a
  // sharded sweep and its worker processes; invoked by a human (no
  // LR_SWEEP_WORKER handshake in the environment) it must refuse with a
  // clear pointer at the public flag instead of speaking the protocol.
  const auto result = run_command("sweep-worker --shard 0 --range 0:1 --total 1 --attempt 1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("internal"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("--processes"), std::string::npos) << result.output;
  // Bare invocation too, not just one with plausible-looking flags.
  EXPECT_EQ(run_command("sweep-worker").exit_code, 2);
}

TEST_F(CliIntegrationTest, SweepProcessesFlagValidation) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs_val.sweep");
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes 0").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes -1").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes two").exit_code, 2);
  EXPECT_EQ(run_command("sweep " + spec_path + " --processes").exit_code, 2);
  // Capped like --threads: parsing fails before any worker is forked.
  const auto above_cap = run_command("sweep " + spec_path + " --processes 257");
  EXPECT_EQ(above_cap.exit_code, 2);
  EXPECT_NE(above_cap.output.find("usage:"), std::string::npos) << above_cap.output;
  EXPECT_EQ(run_command("sweep " + spec_path + " --retries -1").exit_code, 2);
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, SweepMultiProcessMatchesSingleProcessByteForByte) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs.sweep");
  const std::string records1 = temp_file("cli_it_procs1.csv");
  const std::string records4 = temp_file("cli_it_procs4.csv");

  const auto single = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(single.exit_code, 0) << single.output;
  const auto sharded = run_command("sweep " + spec_path + " --processes 4 --records " + records4);
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_NE(sharded.output.find("4 process(es)"), std::string::npos) << sharded.output;

  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(sharded.output));

  std::ifstream r1(records1), r4(records4);
  std::stringstream s1, s4;
  s1 << r1.rdbuf();
  s4 << r4.rdbuf();
  EXPECT_FALSE(s1.str().empty());
  EXPECT_EQ(s1.str(), s4.str());

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records4);
}

TEST_F(CliIntegrationTest, SweepProcessesAboveRunCountClampsAndMatches) {
  const std::string spec_path = write_small_sweep_spec("cli_it_procs_clamp.sweep");
  const auto single = run_command("sweep " + spec_path + " --threads 1");
  ASSERT_EQ(single.exit_code, 0) << single.output;
  // 12 runs, 64 requested workers: the CLI must clamp (with a note),
  // run one worker per run, and still produce identical tables.
  const auto clamped = run_command("sweep " + spec_path + " --processes 64");
  EXPECT_EQ(clamped.exit_code, 0) << clamped.output;
  EXPECT_NE(clamped.output.find("note: --processes 64 clamped to 12"), std::string::npos)
      << clamped.output;
  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(clamped.output));
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, RunRejectsUnknownScheduler) {
  const std::string path = temp_file("cli_it_sched.lri");
  ASSERT_EQ(run_command("gen chain 5 1 " + path).exit_code, 0);
  EXPECT_EQ(run_command("run " + path + " pr teleport").exit_code, 2);
  std::filesystem::remove(path);
}

// Lines outside the serve determinism contract: the "serve:" stderr
// line carries wall-clock throughput (run_command merges stderr into
// stdout, so strip it before comparing reports).
std::string strip_serve_progress(const std::string& output) {
  std::string kept;
  std::istringstream iss(output);
  std::string line;
  while (std::getline(iss, line)) {
    if (line.rfind("serve:", 0) != 0) kept += line + "\n";
  }
  return kept;
}

TEST_F(CliIntegrationTest, ServeFlagValidation) {
  EXPECT_EQ(run_command("serve").exit_code, 2);
  EXPECT_EQ(run_command("serve chain").exit_code, 2);
  EXPECT_EQ(run_command("serve moebius 8").exit_code, 2);    // unknown topology
  EXPECT_EQ(run_command("serve chain 0").exit_code, 2);      // empty service
  EXPECT_EQ(run_command("serve chain eight").exit_code, 2);  // non-numeric size
  EXPECT_EQ(run_command("serve chain 8 --workload batch").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --scheduler calendar").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients 0").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients two").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --duration -5").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --clients").exit_code, 2);  // missing value
  EXPECT_EQ(run_command("serve chain 8 --bogus 1").exit_code, 2);
  EXPECT_EQ(run_command("serve chain 8 --threads 4").exit_code, 2);  // the harness is serial
}

TEST_F(CliIntegrationTest, ServeReportsTheLatencySchema) {
  const auto result = run_command("serve random 16 --clients 4 --duration 64 --seed 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const std::string report = strip_serve_progress(result.output);
  // Header row, then one row per kind plus the merged "all" row.
  EXPECT_EQ(report.rfind("kind,issued,completed,failed,p50,p99,p999,mean,max,hops,fingerprint",
                         0),
            0u)
      << report;
  EXPECT_NE(report.find("\nroute,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nlock,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nleader,"), std::string::npos) << report;
  EXPECT_NE(report.find("\nall,"), std::string::npos) << report;
  // The stderr line reports wall-clock throughput and churn accounting.
  EXPECT_NE(result.output.find("serve:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("req/s"), std::string::npos) << result.output;
}

TEST_F(CliIntegrationTest, ServeReportIsDeploymentInvariant) {
  const std::string args = "serve random 24 --clients 6 --duration 96 --seed 5 --churn 8";
  const auto reference = run_command(args);
  ASSERT_EQ(reference.exit_code, 0) << reference.output;
  const std::string expected = strip_serve_progress(reference.output);
  const auto result = run_command(args + " --scheduler wheel");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(strip_serve_progress(result.output), expected);
}

TEST_F(CliIntegrationTest, ServeWritesJsonReport) {
  const std::string json_path = temp_file("cli_it_serve.json");
  const auto result =
      run_command("serve chain 12 --clients 4 --duration 64 --json " + json_path);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::ifstream json(json_path);
  std::stringstream contents;
  contents << json.rdbuf();
  EXPECT_NE(contents.str().find("\"kind\": \"route\""), std::string::npos) << contents.str();
  EXPECT_NE(contents.str().find("\"kind\": \"all\""), std::string::npos) << contents.str();
  EXPECT_NE(contents.str().find("\"p99\""), std::string::npos) << contents.str();
  std::filesystem::remove(json_path);
}

TEST_F(CliIntegrationTest, ServiceSweepShardsMatchSingleProcessByteForByte) {
  const std::string spec_path = temp_file("cli_it_service.sweep");
  {
    std::ofstream spec(spec_path);
    spec << "topology  = chain, random\n"
            "size      = 12\n"
            "algorithm = service\n"
            "seed      = 1..3\n"
            "sim_threads = 2\n"
            "service_clients = 4\n"
            "service_duration = 64\n";
  }
  const std::string records1 = temp_file("cli_it_service1.csv");
  const std::string records2 = temp_file("cli_it_service2.csv");
  const auto single = run_command("sweep " + spec_path + " --threads 1 --records " + records1);
  EXPECT_EQ(single.exit_code, 0) << single.output;
  const auto sharded = run_command("sweep " + spec_path + " --processes 2 --records " + records2);
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;

  EXPECT_EQ(strip_sweep_progress(single.output), strip_sweep_progress(sharded.output));

  std::ifstream r1(records1), r2(records2);
  std::stringstream s1, s2;
  s1 << r1.rdbuf();
  s2 << r2.rdbuf();
  EXPECT_FALSE(s1.str().empty());
  EXPECT_EQ(s1.str(), s2.str());
  // The record CSV must carry the service fingerprint (dummy_steps
  // column) so shard-merge identity pins the full histograms.
  EXPECT_NE(s1.str().find("service"), std::string::npos);

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records1);
  std::filesystem::remove(records2);
}

// ---------------------------------------------------------------------------
// Multi-host sweep: --hosts / --shard-log / shard-server
// ---------------------------------------------------------------------------

TEST_F(CliIntegrationTest, SweepHostsFlagValidation) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_val.sweep");
  // Malformed endpoint lists: exit 2 and name the offending entry.
  const auto missing_port = run_command("sweep " + spec_path + " --hosts hostonly");
  EXPECT_EQ(missing_port.exit_code, 2);
  EXPECT_NE(missing_port.output.find("hostonly"), std::string::npos) << missing_port.output;
  for (const std::string hosts :
       {"a:0", "a:65536", "a:port", ":9000", "a:9000*0", "a:9000*1025", "a:9000,,b:9001", ""}) {
    const auto result = run_command("sweep " + spec_path + " --hosts '" + hosts + "'");
    EXPECT_EQ(result.exit_code, 2) << "--hosts '" << hosts << "' accepted: " << result.output;
  }
  // Remote workers have no shared filesystem: snapshots cannot compose.
  const auto with_snapshots =
      run_command("sweep " + spec_path + " --hosts 127.0.0.1:9000 --snapshot-dir /tmp/x");
  EXPECT_EQ(with_snapshots.exit_code, 2);
  EXPECT_NE(with_snapshots.output.find("--snapshot-dir"), std::string::npos)
      << with_snapshots.output;
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, SweepShardLogRequiresShardedBackend) {
  const std::string spec_path = write_small_sweep_spec("cli_it_shardlog_val.sweep");
  const auto in_process = run_command("sweep " + spec_path + " --shard-log -");
  EXPECT_EQ(in_process.exit_code, 2);
  EXPECT_NE(in_process.output.find("--shard-log"), std::string::npos) << in_process.output;
  // With a sharded backend the same flag is accepted and produces the
  // per-attempt CSV (on stderr for `-`).
  const auto sharded = run_command("sweep " + spec_path + " --processes 2 --shard-log -");
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_NE(sharded.output.find("shard,attempt,endpoint,outcome"), std::string::npos)
      << sharded.output;
  std::filesystem::remove(spec_path);
}

TEST_F(CliIntegrationTest, ShardServerArgvValidation) {
  EXPECT_EQ(run_command("shard-server").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 0").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 70000").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen a_port").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen").exit_code, 2);
  EXPECT_EQ(run_command("shard-server --listen 9000 --unknown x").exit_code, 2);
}

/// Fork/execs a real `lr_cli shard-server --listen <port>` daemon and
/// waits until it accepts connections.  Returns the child pid, or -1.
pid_t spawn_shard_server(std::uint16_t port) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      ::close(null_fd);
    }
    ::execl(LR_CLI_PATH, LR_CLI_PATH, "shard-server", "--listen",
            std::to_string(port).c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (pid < 0) return -1;
  // Readiness probe: connect until accepted (bounded, never a hang).
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    const bool up = ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) == 0;
    ::close(fd);
    if (up) return pid;
    usleep(50'000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

void stop_shard_server(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  ::waitpid(pid, nullptr, 0);
}

TEST_F(CliIntegrationTest, SweepHostsMatchesProcessesByteForByte) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_e2e.sweep");
  const std::string records_local = temp_file("cli_it_hosts_local.csv");
  const std::string records_tcp = temp_file("cli_it_hosts_tcp.csv");
  const std::string shard_log = temp_file("cli_it_hosts_shards.csv");

  // Ports in the dynamic range, offset by pid so parallel CI jobs on one
  // host do not collide.
  const std::uint16_t base = static_cast<std::uint16_t>(40000 + (getpid() % 10000));
  const pid_t server1 = spawn_shard_server(base);
  const pid_t server2 = spawn_shard_server(static_cast<std::uint16_t>(base + 1));
  ASSERT_GT(server1, 0) << "shard-server on port " << base << " did not come up";
  ASSERT_GT(server2, 0) << "shard-server on port " << base + 1 << " did not come up";

  const auto local =
      run_command("sweep " + spec_path + " --processes 1 --records " + records_local);
  EXPECT_EQ(local.exit_code, 0) << local.output;
  const auto remote = run_command(
      "sweep " + spec_path + " --hosts 127.0.0.1:" + std::to_string(base) + "*2,127.0.0.1:" +
      std::to_string(base + 1) + "*2 --records " + records_tcp + " --shard-log " + shard_log);
  stop_shard_server(server1);
  stop_shard_server(server2);
  EXPECT_EQ(remote.exit_code, 0) << remote.output;
  EXPECT_NE(remote.output.find("2 host(s) x 4 worker(s)"), std::string::npos) << remote.output;

  EXPECT_EQ(strip_sweep_progress(local.output), strip_sweep_progress(remote.output));
  std::ifstream r_local(records_local), r_tcp(records_tcp);
  std::stringstream s_local, s_tcp;
  s_local << r_local.rdbuf();
  s_tcp << r_tcp.rdbuf();
  EXPECT_FALSE(s_local.str().empty());
  EXPECT_EQ(s_local.str(), s_tcp.str());

  std::ifstream log(shard_log);
  std::stringstream log_contents;
  log_contents << log.rdbuf();
  EXPECT_NE(log_contents.str().find("shard,attempt,endpoint,outcome"), std::string::npos)
      << log_contents.str();
  EXPECT_NE(log_contents.str().find("127.0.0.1:" + std::to_string(base)), std::string::npos)
      << log_contents.str();
  EXPECT_NE(log_contents.str().find(",\"ok\","), std::string::npos) << log_contents.str();

  std::filesystem::remove(spec_path);
  std::filesystem::remove(records_local);
  std::filesystem::remove(records_tcp);
  std::filesystem::remove(shard_log);
}

TEST_F(CliIntegrationTest, SweepHostsAllDeadFailsLoudlyWithoutFallback) {
  const std::string spec_path = write_small_sweep_spec("cli_it_hosts_dead.sweep");
  // Port 1 on loopback: connects are refused, the sweep must fail with
  // a readable diagnosis, and must not hang (the 60 s timeout of this
  // test binary is the backstop).
  const auto result = run_command("sweep " + spec_path + " --hosts 127.0.0.1:1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("multi-host sweep failed"), std::string::npos) << result.output;
  std::filesystem::remove(spec_path);
}

}  // namespace

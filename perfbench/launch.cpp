// lr_bench_launch — runs one command and reports its wall time and the peak
// resident set of the largest process in it.
//
//   lr_bench_launch <report_file> <program> [args...]
//   lr_bench_launch --spin
//
// Writes "<wall_ns> <peak_rss_kib>" to <report_file> and exits with the
// command's exit code (128 + signal number if it was killed).  The wall time
// runs from the fork to the reaping of the command; the peak is ru_maxrss of
// the command and every descendant it reaped.
//
// The benchmark launches through this small program because a process forked
// straight from the (much larger) Python interpreter starts its ru_maxrss at
// the interpreter's resident set, which would hide the peak of a small sweep.
//
// --spin runs a fixed kernel of the benchmark's own instead: it page-faults a
// 1 MiB array, shuffles it into one random cycle and walks the cycle.  Timed
// through the launcher like an operation, it measures how fast the host runs
// a fixed amount of process start, memory and compute work right now; the
// benchmark uses it to scale its timings to a reference host speed.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

namespace {

int spin() {
  std::vector<std::uint32_t> next(1u << 18);
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[(state >> 33) % i]);
  }
  std::uint32_t at = 0;
  for (std::size_t step = 0; step < next.size(); ++step) at = next[at];
  return at == 0 ? 0 : 1;  // a full cycle returns to its start
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--spin") return spin();
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: lr_bench_launch <report_file> <program> [args...]\n"
                 "       lr_bench_launch --spin\n");
    return 2;
  }
  timespec start{};
  timespec end{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("lr_bench_launch: fork");
    return 127;
  }
  if (pid == 0) {
    execv(argv[2], argv + 2);
    std::perror("lr_bench_launch: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("lr_bench_launch: wait4");
    return 127;
  }
  clock_gettime(CLOCK_MONOTONIC, &end);
  const long long wall_ns =
      (end.tv_sec - start.tv_sec) * 1'000'000'000LL + (end.tv_nsec - start.tv_nsec);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr || std::fprintf(report, "%lld %ld\n", wall_ns, usage.ru_maxrss) < 0 ||
      std::fclose(report) != 0) {
    std::perror("lr_bench_launch: report");
    return 127;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

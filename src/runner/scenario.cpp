#include "runner/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <concepts>
#include <limits>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace lr {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {

/// Folds `value` into hash state `h` (one SplitMix64 round per field).
std::uint64_t mix(std::uint64_t h, std::uint64_t value) { return splitmix64(h ^ value); }

// Domain tags keep the derived streams (instance / scheduler / network)
// statistically independent even though they share the axis inputs.
constexpr std::uint64_t kInstanceDomain = 0x1a57a9cee1ULL;
constexpr std::uint64_t kSchedulerDomain = 0x5c4ed01e5ULL;
constexpr std::uint64_t kNetworkDomain = 0x4e7320a11ULL;
constexpr std::uint64_t kSpecDomain = 0x5bec0d16e5ULL;

}  // namespace

std::uint64_t RunSpec::instance_seed() const {
  std::uint64_t h = mix(kInstanceDomain, static_cast<std::uint64_t>(topology));
  h = mix(h, static_cast<std::uint64_t>(size));
  return mix(h, seed);
}

std::uint64_t RunSpec::scheduler_seed() const { return mix(kSchedulerDomain, instance_seed()); }

std::uint64_t RunSpec::network_seed() const { return mix(kNetworkDomain, instance_seed()); }

std::uint64_t spec_digest(const RunSpec& spec) {
  // Each fold is a bijection of the running state for fixed later
  // inputs, so changing any one field changes the digest.
  std::uint64_t h = mix(kSpecDomain, static_cast<std::uint64_t>(spec.topology));
  h = mix(h, spec.size);
  h = mix(h, static_cast<std::uint64_t>(spec.algorithm));
  h = mix(h, static_cast<std::uint64_t>(spec.scheduler));
  h = mix(h, spec.seed);
  for_each_scalar(spec, [&h](const char*, const auto& field) {
    h = mix(h, static_cast<std::uint64_t>(field));
  });
  return h;
}

namespace {

/// Torus side length for nominal size n: the largest >= 3 square that
/// fits, so `size = 10^6` yields a 1000 x 1000 torus.
std::size_t torus_side(std::size_t size) {
  std::size_t side = static_cast<std::size_t>(std::sqrt(static_cast<double>(size)));
  while ((side + 1) * (side + 1) <= size) ++side;  // fix sqrt rounding
  return std::max<std::size_t>(3, side);
}

/// Waypoint proximity radius for n nodes: expected degree ~= 6*pi, above
/// the ~ln n connectivity threshold up to well past 10^6 nodes, so
/// million-node draws connect without radius-growth retries.
double waypoint_radius(std::size_t n) {
  return std::sqrt(6.0 / static_cast<double>(std::max<std::size_t>(n, 1)));
}

}  // namespace

Instance make_instance(const RunSpec& spec) {
  std::mt19937_64 rng(spec.instance_seed());
  switch (spec.topology) {
    case TopologyKind::kChain:
      return make_worst_case_chain(spec.size);
    case TopologyKind::kRandom:
      return make_random_instance(spec.size, spec.size, rng);
    case TopologyKind::kGrid:
      return make_grid_instance(spec.size / 8 + 2, 8, rng);
    case TopologyKind::kLayered:
      return make_layered_bad_instance(spec.size / 8 + 2, 8, 0.3, rng);
    case TopologyKind::kStar:
      return make_sink_source_instance(spec.size | 1);
    case TopologyKind::kUnitDisk:
      return make_unit_disk_instance(spec.size, 0.25, rng);
    case TopologyKind::kTorus:
      return make_torus_instance(torus_side(spec.size), torus_side(spec.size), rng);
    case TopologyKind::kWideRandom:
      return make_wide_random_instance(spec.size, 8.0, rng);
    case TopologyKind::kWaypoint:
      // The static part of the churn workload; the schedule draws come
      // after it on the same stream, so dropping them changes nothing.
      return make_waypoint_churn_instance(std::max<std::size_t>(spec.size, 2),
                                          waypoint_radius(spec.size), 0, rng)
          .instance;
  }
  throw std::invalid_argument("make_instance: unknown topology kind");
}

ChurnInstance make_churn_instance(const RunSpec& spec) {
  if (spec.topology == TopologyKind::kWaypoint) {
    std::mt19937_64 rng(spec.instance_seed());
    return make_waypoint_churn_instance(std::max<std::size_t>(spec.size, 2),
                                        waypoint_radius(spec.size), spec.churn_events, rng);
  }
  return {make_instance(spec), {}};
}

const char* topology_token(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kChain:
      return "chain";
    case TopologyKind::kRandom:
      return "random";
    case TopologyKind::kGrid:
      return "grid";
    case TopologyKind::kLayered:
      return "layered";
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kUnitDisk:
      return "unitdisk";
    case TopologyKind::kTorus:
      return "torus";
    case TopologyKind::kWideRandom:
      return "widerandom";
    case TopologyKind::kWaypoint:
      return "waypoint";
  }
  return "?";
}

const char* algorithm_token(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kFullReversal:
      return "fr";
    case AlgorithmKind::kOneStepPR:
      return "pr";
    case AlgorithmKind::kNewPR:
      return "newpr";
    case AlgorithmKind::kHybrid:
      return "hybrid";
    case AlgorithmKind::kTora:
      return "tora";
    case AlgorithmKind::kDistFR:
      return "dist-fr";
    case AlgorithmKind::kDistPR:
      return "dist-pr";
    case AlgorithmKind::kSimRPrime:
      return "sim-rprime";
    case AlgorithmKind::kSimR:
      return "sim-r";
    case AlgorithmKind::kSimRRev:
      return "sim-rrev";
    case AlgorithmKind::kService:
      return "service";
  }
  return "?";
}

const char* path_token(ExecutionPath path) {
  switch (path) {
    case ExecutionPath::kCsr:
      return "csr";
    case ExecutionPath::kLegacy:
      return "legacy";
  }
  return "?";
}

const char* scheduler_token(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kLowestId:
      return "lowest";
    case SchedulerKind::kRandom:
      return "random";
    case SchedulerKind::kRoundRobin:
      return "rr";
    case SchedulerKind::kFarthestFirst:
      return "farthest";
  }
  return "?";
}

namespace {

template <typename Kind>
Kind parse_token(const std::string& token, const char* axis, const char* (*name)(Kind),
                 std::initializer_list<Kind> all) {
  for (const Kind kind : all) {
    if (token == name(kind)) return kind;
  }
  std::string known;
  for (const Kind kind : all) {
    if (!known.empty()) known += ", ";
    known += name(kind);
  }
  throw std::invalid_argument(std::string("unknown ") + axis + " '" + token + "' (known: " +
                              known + ")");
}

}  // namespace

TopologyKind parse_topology(const std::string& token) {
  return parse_token(token, "topology", topology_token,
                     {TopologyKind::kChain, TopologyKind::kRandom, TopologyKind::kGrid,
                      TopologyKind::kLayered, TopologyKind::kStar, TopologyKind::kUnitDisk,
                      TopologyKind::kTorus, TopologyKind::kWideRandom, TopologyKind::kWaypoint});
}

AlgorithmKind parse_algorithm(const std::string& token) {
  return parse_token(token, "algorithm", algorithm_token,
                     {AlgorithmKind::kFullReversal, AlgorithmKind::kOneStepPR,
                      AlgorithmKind::kNewPR, AlgorithmKind::kHybrid, AlgorithmKind::kTora,
                      AlgorithmKind::kDistFR, AlgorithmKind::kDistPR, AlgorithmKind::kSimRPrime,
                      AlgorithmKind::kSimR, AlgorithmKind::kSimRRev, AlgorithmKind::kService});
}

SchedulerKind parse_scheduler(const std::string& token) {
  return parse_token(token, "scheduler", scheduler_token,
                     {SchedulerKind::kLowestId, SchedulerKind::kRandom,
                      SchedulerKind::kRoundRobin, SchedulerKind::kFarthestFirst});
}

ExecutionPath parse_path(const std::string& token) {
  return parse_token(token, "path", path_token, {ExecutionPath::kCsr, ExecutionPath::kLegacy});
}

std::size_t SweepSpec::run_count() const {
  return topologies.size() * sizes.size() * algorithms.size() * schedulers.size() * seeds.size();
}

std::vector<RunSpec> SweepSpec::expand() const {
  std::vector<RunSpec> runs;
  runs.reserve(run_count());
  for (const TopologyKind topology : topologies) {
    for (const std::size_t size : sizes) {
      for (const AlgorithmKind algorithm : algorithms) {
        for (const SchedulerKind scheduler : schedulers) {
          for (const std::uint64_t seed : seeds) {
            RunSpec spec;
            static_cast<SpecScalars&>(spec) = *this;
            spec.topology = topology;
            spec.size = size;
            spec.algorithm = algorithm;
            spec.scheduler = scheduler;
            spec.seed = seed;
            runs.push_back(spec);
          }
        }
      }
    }
  }
  return runs;
}

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0, end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split_values(const std::string& list) {
  std::vector<std::string> values;
  std::istringstream iss(list);
  std::string item;
  while (std::getline(iss, item, ',')) {
    const std::string value = trim(item);
    if (value.empty()) throw std::invalid_argument("empty value in list '" + list + "'");
    values.push_back(value);
  }
  return values;
}

std::uint64_t parse_u64(const std::string& token) {
  if (token.empty() || !std::all_of(token.begin(), token.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c));
      })) {
    throw std::invalid_argument("expected a non-negative integer, got '" + token + "'");
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::invalid_argument("integer '" + token + "' is out of range");
    }
    value = value * 10 + digit;
  }
  return value;
}

/// Parses an integer list with `lo..hi` inclusive range sugar.
std::vector<std::uint64_t> parse_integer_list(const std::string& list) {
  constexpr std::uint64_t kMaxRange = 1'000'000;  // guard against typo'd 1..1e18 sweeps
  std::vector<std::uint64_t> values;
  for (const std::string& token : split_values(list)) {
    const std::size_t dots = token.find("..");
    if (dots == std::string::npos) {
      values.push_back(parse_u64(token));
      continue;
    }
    const std::uint64_t lo = parse_u64(trim(token.substr(0, dots)));
    const std::uint64_t hi = parse_u64(trim(token.substr(dots + 2)));
    if (hi < lo) throw std::invalid_argument("descending range '" + token + "'");
    // hi - lo, not hi - lo + 1: the latter wraps to 0 for 0..2^64-1.
    if (hi - lo >= kMaxRange) throw std::invalid_argument("range too large: '" + token + "'");
    for (std::uint64_t v = lo;; ++v) {  // `v <= hi` would never fail at hi = 2^64-1
      values.push_back(v);
      if (v == hi) break;
    }
  }
  return values;
}

/// The single value of scalar `key`'s value list.
std::string single_value(const std::string& key, const std::string& list) {
  const std::vector<std::string> values = split_values(list);
  if (values.size() != 1) throw std::invalid_argument(key + " takes a single value");
  return values[0];
}

// Scalar field parsers and printers, one overload per field type of
// SpecScalars.

template <std::unsigned_integral Integer>
void parse_scalar(const std::string& key, const std::string& list, Integer& field) {
  field = static_cast<Integer>(parse_u64(single_value(key, list)));
}
void parse_scalar(const std::string& key, const std::string& list, ExecutionPath& field) {
  field = parse_path(single_value(key, list));
}
void parse_scalar(const std::string& key, const std::string& list, EventSchedulerKind& field) {
  field = parse_event_scheduler(single_value(key, list));
}
void parse_scalar(const std::string& key, const std::string& list, ServiceWorkload& field) {
  field = parse_service_workload(single_value(key, list));
}

template <std::unsigned_integral Integer>
std::string scalar_text(Integer field) {
  return std::to_string(field);
}
std::string scalar_text(ExecutionPath field) { return path_token(field); }
std::string scalar_text(EventSchedulerKind field) { return event_scheduler_token(field); }
std::string scalar_text(ServiceWorkload field) { return service_workload_token(field); }

/// Parses one `key = values` line into `spec`; false when `key` names
/// neither an axis nor a scalar.
bool parse_line(const std::string& key, const std::string& values, SweepSpec& spec) {
  if (key == "topology") {
    for (const std::string& token : split_values(values)) {
      spec.topologies.push_back(parse_topology(token));
    }
  } else if (key == "size") {
    for (const std::uint64_t v : parse_integer_list(values)) {
      spec.sizes.push_back(static_cast<std::size_t>(v));
    }
  } else if (key == "algorithm") {
    for (const std::string& token : split_values(values)) {
      spec.algorithms.push_back(parse_algorithm(token));
    }
  } else if (key == "scheduler") {
    for (const std::string& token : split_values(values)) {
      spec.schedulers.push_back(parse_scheduler(token));
    }
  } else if (key == "seed") {
    spec.seeds = parse_integer_list(values);
  } else {
    bool known = false;
    for_each_scalar(spec, [&](const char* name, auto& field) {
      if (key != name) return;
      known = true;
      parse_scalar(key, values, field);
    });
    if (!known) return false;
    // A service with no clients is meaningless; a thread count sizes a pool.
    if (spec.service_clients == 0) {
      throw std::invalid_argument("service_clients takes a single value >= 1");
    }
    if (spec.engine_threads > kMaxThreads || spec.sim_threads > kMaxThreads) {
      throw std::invalid_argument(key + " takes at most " + std::to_string(kMaxThreads) +
                                  " threads");
    }
  }
  return true;
}

}  // namespace

SweepSpec SweepSpec::parse(std::istream& is) {
  SweepSpec spec;
  std::set<std::string> seen;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("sweep spec line " + std::to_string(line_number) +
                                  ": expected 'key = values', got '" + stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string values = trim(stripped.substr(eq + 1));
    if (!seen.insert(key).second) {
      throw std::invalid_argument("sweep spec line " + std::to_string(line_number) +
                                  ": duplicate key '" + key + "'");
    }
    try {
      if (!parse_line(key, values, spec)) throw std::invalid_argument("unknown key '" + key + "'");
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument("sweep spec line " + std::to_string(line_number) + ": " +
                                  error.what());
    }
  }
  for (const auto& [axis, empty] :
       {std::pair<const char*, bool>{"topology", spec.topologies.empty()},
        {"size", spec.sizes.empty()},
        {"algorithm", spec.algorithms.empty()}}) {
    if (empty) throw std::invalid_argument(std::string("sweep spec: missing required '") + axis +
                                           "' axis");
  }
  if (spec.schedulers.empty()) spec.schedulers.push_back(SchedulerKind::kLowestId);
  if (spec.seeds.empty()) spec.seeds.push_back(1);
  return spec;
}

SweepSpec SweepSpec::parse_string(const std::string& text) {
  std::istringstream iss(text);
  return parse(iss);
}

std::string format_sweep_spec(const SweepSpec& spec) {
  std::ostringstream os;
  const auto list_line = [&os](const char* key, const auto& values, const auto& token) {
    os << key << " = ";
    bool first = true;
    for (const auto& value : values) {
      if (!first) os << ", ";
      first = false;
      os << token(value);
    }
    os << "\n";
  };
  const auto integer = [](const auto value) { return std::to_string(value); };
  list_line("topology", spec.topologies, topology_token);
  list_line("size", spec.sizes, integer);
  list_line("algorithm", spec.algorithms, algorithm_token);
  list_line("scheduler", spec.schedulers, scheduler_token);
  list_line("seed", spec.seeds, integer);
  for_each_scalar(spec, [&os](const char* key, const auto& field) {
    os << key << " = " << scalar_text(field) << "\n";
  });
  return os.str();
}

}  // namespace lr

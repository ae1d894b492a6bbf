/// perfbench_trace: the benchmark's traced run.
///
/// It replays generated serve request lines, or one enumerate job, in one
/// process, with a span around every call into a ccver layer's public
/// functions. Spans (name, pass, job, start, end, parent) stay in memory and
/// are written once at exit, together with each job's verdict, its work
/// counters and the payload of every distinct (input, verb) pair, so
/// run.py can check the traced run against the known-answer table.
///
///   perfbench_trace jobs REQUESTS OUT [--cache]
///   perfbench_trace enumerate SPEC OUT --n N --threads T [--strict]
///                   [--spill-dir DIR --spill-watermark BYTES]
///   perfbench_trace dump-buggy DIR
///
/// `jobs` runs every line twice, once traced and once untraced, so traced
/// over untraced job time is the tracing overhead.
/// `--cache` models the serve result cache: within a pass, a repeat of an
/// earlier (spec fingerprint, verb) pair skips the engine and the render.
/// The verify layer split (`core.expand`, `core.graph`) runs after the job
/// span closes, for traced runs only, so it never counts as job time.


#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/checks.hpp"
#include "analysis/output.hpp"
#include "core/report_json.hpp"
#include "core/verifier.hpp"
#include "enumeration/enumerator.hpp"
#include "enumeration/report_json.hpp"
#include "protocols/mutation.hpp"
#include "serve/protocol.hpp"
#include "spec/loader.hpp"
#include "spec/parser.hpp"
#include "spec/writer.hpp"
#include "util/budget.hpp"
#include "util/checkpoint_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace {

using namespace ccver;

struct Span {
  const char* name;
  std::uint32_t pass;
  std::uint32_t job;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int32_t parent;  ///< index into the span vector; -1 for a root
                        ///< (written as index + 1, so 0 is a root)
};

/// In-memory span recorder. While `on` is false a Scope costs one branch.
struct Recorder {
  bool on = false;
  std::uint32_t pass = 0;
  std::uint32_t job = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of unfinished spans
};

class Scope {
 public:
  Scope(Recorder& r, const char* name) : r_(r) {
    if (!r_.on) return;
    index_ = static_cast<std::int32_t>(r_.spans.size());
    r_.spans.push_back(Span{name, r_.pass, r_.job, 0, 0,
                            r_.open.empty() ? -1 : r_.open.back()});
    r_.open.push_back(index_);
    r_.spans.back().start_ns = metrics_now_ns();
  }
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void close() {
    if (index_ < 0) return;
    r_.spans[static_cast<std::size_t>(index_)].end_ns = metrics_now_ns();
    r_.open.pop_back();
    index_ = -1;
  }

 private:
  Recorder& r_;
  std::int32_t index_ = -1;
};

template <class F>
auto timed(Recorder& r, const char* name, F&& f) {
  const Scope scope(r, name);
  return f();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::uint64_t counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

// VmHWM of this process's own memory. getrusage's ru_maxrss would also
// count the parent's peak, which exec records in it.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void write_spans(JsonWriter& json, const Recorder& rec,
                 std::uint64_t origin_ns) {
  json.key("spans").begin_array();
  for (const Span& s : rec.spans) {
    json.begin_array();
    json.value(s.name);
    json.value(static_cast<std::uint64_t>(s.pass));
    json.value(static_cast<std::uint64_t>(s.job));
    json.value(s.start_ns - origin_ns);
    json.value(s.end_ns - origin_ns);
    json.value(static_cast<std::uint64_t>(s.parent + 1));  // 0 = root
    json.end_array();
  }
  json.end_array();
}

// ---- jobs --------------------------------------------------------------

struct JobOutcome {
  std::string key;  ///< "<input>:<verb>", the request id minus its counter
  JobStatus status = JobStatus::InternalError;
  bool cached = false;
  std::string payload;
  std::uint64_t job_ns = 0;  ///< the job span alone (no layer split)
  std::uint64_t essential = 0;
  std::uint64_t visits = 0;
  std::uint64_t expansions = 0;
  std::uint64_t index_probes = 0;
};

struct CachedVerdict {
  JobStatus status;
  std::string payload;
};

/// One serve job, call for call what the server runs for an inline spec.
JobOutcome run_job_line(Recorder& rec, std::string_view line,
                        std::uint64_t seq,
                        std::unordered_map<std::uint64_t, CachedVerdict>*
                            cache) {
  JobOutcome out;
  const std::uint64_t start = metrics_now_ns();
  Scope job(rec, "job");
  const ParsedRequest parsed = timed(
      rec, "serve.request_parse", [&] { return parse_request(line, seq); });
  if (!parsed.ok || parsed.request.op != RequestOp::Job ||
      parsed.request.source != SpecSource::Inline ||
      parsed.request.verb == ServeRequest::Verb::Enumerate) {
    throw std::runtime_error("not an inline verify/lint job: " +
                             std::string(line.substr(0, 80)));
  }
  const ServeRequest& req = parsed.request;
  const auto colon = req.id.find(':');
  out.key = colon == std::string::npos ? req.id : req.id.substr(colon + 1);
  const bool lint = req.verb == ServeRequest::Verb::Lint;

  const Protocol p = timed(rec, "spec.parse", [&] {
    return lint ? parse_protocol_lenient(req.spec) : parse_protocol(req.spec);
  });
  const std::string describe =
      timed(rec, "fsm.describe", [&] { return p.describe(); });
  const std::uint64_t fingerprint = timed(
      rec, "util.fingerprint", [&] { return describe_fingerprint(describe); });

  std::uint64_t key = 0;
  if (cache != nullptr) {
    key = fingerprint * 31 + static_cast<std::uint64_t>(req.verb);
    if (lint) key ^= std::hash<std::string_view>{}(req.spec);
    const auto hit = cache->find(key);
    if (hit != cache->end()) {
      out.status = hit->second.status;
      out.payload = hit->second.payload;
      out.cached = true;
      job.close();
      out.job_ns = metrics_now_ns() - start;
      return out;
    }
  }

  Budget budget(Budget::Limits{});
  VerificationReport report;
  if (lint) {
    LintOptions options;
    options.budget = &budget;
    std::vector<LintedFile> files;
    files.push_back(LintedFile{
        "spec", timed(rec, "analysis.lint",
                      [&] { return lint_protocol(p, options); })});
    out.payload = timed(rec, "analysis.render",
                        [&] { return diagnostics_to_json(files); });
    out.status = files.front().report.count(Severity::Error) > 0
                     ? JobStatus::ProtocolErrors
                     : JobStatus::Verified;
  } else {
    Verifier::Options options;
    options.budget = &budget;
    report = timed(rec, "core.verify",
                   [&] { return Verifier(p, options).verify(); });
    out.payload =
        timed(rec, "core.render", [&] { return report_to_json(report, p); });
    out.status = !report.ok ? JobStatus::ProtocolErrors
                 : report.outcome == Outcome::Partial ? JobStatus::Partial
                                                      : JobStatus::Verified;
    out.essential = report.essential.size();
    out.visits = report.stats.visits;
  }
  if (cache != nullptr) (*cache)[key] = CachedVerdict{out.status, out.payload};
  job.close();
  out.job_ns = metrics_now_ns() - start;

  if (rec.on && !lint) {
    // The layer split of verify: the expansion alone, then the graph over
    // its essential states. Counters come from the expansion's metrics.
    const Scope split(rec, "core.split");
    MetricsRegistry metrics;
    Verifier::Options options;
    options.metrics = &metrics;
    (void)timed(rec, "core.expand",
                [&] { return Verifier(p, options).expand(); });
    if (report.ok) {
      (void)timed(rec, "core.graph", [&] {
        return ReachabilityGraph::build(p, report.essential);
      });
    }
    const MetricsSnapshot snap = metrics.snapshot();
    out.expansions = counter(snap, "expand.expansions");
    out.index_probes = counter(snap, "expand.index_probes");
  }
  return out;
}

int cmd_jobs(int argc, char** argv) {
  if (argc < 4) throw std::runtime_error("jobs: REQUESTS OUT required");
  const std::string out_path = argv[3];
  bool use_cache = false;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") != 0) {
      throw std::runtime_error(std::string("jobs: unknown flag ") + argv[i]);
    }
    use_cache = true;
  }
  std::vector<std::string> lines;
  {
    std::istringstream in(read_file(argv[2]));
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(std::move(line));
    }
  }
  if (lines.empty()) throw std::runtime_error("jobs: no request lines");

  // Job j is traced in pass p when p + j is odd, so both passes mix traced
  // and untraced jobs and each job runs both ways: warm-up and drift hit
  // both sides alike.
  Recorder rec;
  const std::uint64_t origin = metrics_now_ns();
  std::uint64_t traced_ns = 0;
  std::uint64_t untraced_ns = 0;
  std::vector<JobOutcome> jobs(lines.size());
  std::map<std::string, std::string> payloads;
  std::uint64_t mismatches = 0;
  for (std::uint32_t pass = 0; pass < 2; ++pass) {
    rec.pass = pass;
    std::unordered_map<std::uint64_t, CachedVerdict> cache;
    for (std::uint32_t j = 0; j < lines.size(); ++j) {
      rec.on = (pass + j) % 2 == 1;
      rec.job = j;
      JobOutcome o =
          run_job_line(rec, lines[j], j + 1, use_cache ? &cache : nullptr);
      (rec.on ? traced_ns : untraced_ns) += o.job_ns;
      const auto [it, inserted] = payloads.emplace(o.key, o.payload);
      if (!inserted && it->second != o.payload) ++mismatches;
      if (rec.on) {
        o.payload.clear();
        jobs[j] = std::move(o);
      }
    }
  }

  JsonWriter json;
  json.begin_object();
  json.key("traced_ns").value(traced_ns);
  json.key("untraced_ns").value(untraced_ns);
  json.key("jobs").begin_array();
  for (const JobOutcome& o : jobs) {
    json.begin_object();
    json.key("key").value(o.key);
    json.key("status").value(to_string(o.status));
    json.key("cached").value(o.cached);
    json.key("job_ns").value(o.job_ns);
    json.key("essential").value(o.essential);
    json.key("visits").value(o.visits);
    json.key("expansions").value(o.expansions);
    json.key("index_probes").value(o.index_probes);
    json.end_object();
  }
  json.end_array();
  json.key("payloads").begin_object();
  for (const auto& [key, payload] : payloads) json.key(key).value(payload);
  json.end_object();
  json.key("payload_mismatches").value(mismatches);
  write_spans(json, rec, origin);
  json.end_object();
  write_file(out_path, std::move(json).str());
  return 0;
}

// ---- enumerate ---------------------------------------------------------

int cmd_enumerate(int argc, char** argv) {
  if (argc < 4) throw std::runtime_error("enumerate: SPEC OUT required");
  const std::string spec_path = argv[2];
  const std::string out_path = argv[3];
  Enumerator::Options opt;
  for (int i = 4; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--strict") {
      opt.equivalence = Equivalence::Strict;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--n") {
      opt.n_caches = std::stoul(value);
    } else if (flag == "--threads") {
      opt.threads = std::stoul(value);
    } else if (flag == "--spill-dir") {
      opt.spill_dir = value;
    } else if (flag == "--spill-watermark") {
      opt.spill_watermark = std::stoull(value);
    } else {
      throw std::runtime_error("enumerate: unknown flag " + flag);
    }
  }

  Recorder rec;
  rec.on = true;
  const std::uint64_t origin = metrics_now_ns();
  MetricsRegistry metrics;
  Budget budget(Budget::Limits{});
  opt.metrics = &metrics;
  opt.budget = &budget;
  Scope job(rec, "job");
  const Protocol p = timed(rec, "spec.parse",
                           [&] { return load_protocol_file(spec_path); });
  const EnumerationResult r =
      timed(rec, "enumeration.run", [&] { return Enumerator(p, opt).run(); });
  const std::string payload = timed(rec, "enumeration.render", [&] {
    return enumeration_to_json(p, opt.n_caches, opt.equivalence, r);
  });
  job.close();

  const MetricsSnapshot snap = metrics.snapshot();
  JsonWriter json;
  json.begin_object();
  json.key("status").value(to_string(
      !r.errors.empty()                ? JobStatus::ProtocolErrors
      : r.outcome == Outcome::Partial ? JobStatus::Partial
                                      : JobStatus::Verified));
  json.key("payload").value(payload);
  json.key("counts").begin_object();
  json.key("states").value(static_cast<std::uint64_t>(r.states));
  json.key("visits").value(static_cast<std::uint64_t>(r.visits));
  json.key("symmetry_skips")
      .value(static_cast<std::uint64_t>(r.symmetry_skips));
  json.key("dedup.probes").value(counter(snap, "enum.dedup.probes"));
  json.key("peak_bytes").value(peak_rss_bytes());
  json.key("spill.spilled_keys").value(r.spilled_keys);
  json.key("spill.runs").value(static_cast<std::uint64_t>(r.spill_runs));
  json.key("spill.probes").value(counter(snap, "enum.spill.probes"));
  json.key("spill.bloom_skips")
      .value(counter(snap, "enum.spill.bloom_skips"));
  json.end_object();
  write_spans(json, rec, origin);
  json.end_object();
  write_file(out_path, std::move(json).str());
  return 0;
}

// ---- dump-buggy --------------------------------------------------------

int cmd_dump_buggy(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("dump-buggy: DIR required");
  for (const protocols::NamedMutant& m : protocols::buggy_variants()) {
    write_file(std::string(argv[2]) + "/" + m.name + ".ccp",
               to_spec(m.factory()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "jobs") return cmd_jobs(argc, argv);
    if (cmd == "enumerate") return cmd_enumerate(argc, argv);
    if (cmd == "dump-buggy") return cmd_dump_buggy(argc, argv);
    std::cerr << "usage: perfbench_trace jobs|enumerate|dump-buggy ...\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 1;
  }
}

/// perfbench_calib: a fixed reference job that measures the host's speed.
///
///   perfbench_calib THREADS
///
/// Each of THREADS threads builds, sorts, hashes and frees the same batches
/// of short strings. A batch stays in a core's cache, so the work measures
/// the speed of the core and its allocator. It is built only from this file
/// and the standard library, so no change to ccver can move it. It prints
/// `CHECKSUM CPU_NS`: a checksum that is the same on every run, then the
/// CPU time of the work summed over the threads, without the process's
/// start-up. run.py runs it between the jobs it measures and reports job
/// CPU in units of it, so a host that runs slower for a minute slows both
/// alike.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr int kBatch = 4096;  // strings, ~200 KiB: within a core's L2
constexpr int kBatches = 90;

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t text_work(std::uint64_t seed) {
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::string> lines;
    lines.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      std::uint64_t h = mix(seed ^ static_cast<std::uint64_t>(b * kBatch + i));
      lines.push_back("{\"state\":\"S" + std::to_string(h % 97) +
                      "\",\"n\":" + std::to_string(h >> 20) + ",\"ok\":true}");
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) {
      for (char c : line) {
        fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
      }
    }
  }
  return fnv;
}

struct Part {
  std::uint64_t sum = 0;
  std::uint64_t cpu_ns = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int threads = argc == 2 ? std::atoi(argv[1]) : 0;
  if (threads < 1 || threads > 64) {
    std::fprintf(stderr, "usage: perfbench_calib THREADS\n");
    return 2;
  }
  std::vector<Part> parts(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([t, &parts] {
      std::uint64_t start = thread_cpu_ns();
      parts[t].sum = text_work(0x5eed + static_cast<std::uint64_t>(t));
      parts[t].cpu_ns = thread_cpu_ns() - start;
    });
  }
  for (std::thread& th : pool) th.join();
  Part total;
  for (const Part& part : parts) {
    total.sum = mix(total.sum ^ part.sum);
    total.cpu_ns += part.cpu_ns;
  }
  std::printf("%016llx %llu\n", static_cast<unsigned long long>(total.sum),
              static_cast<unsigned long long>(total.cpu_ns));
  return 0;
}

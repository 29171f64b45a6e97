// SIGPROF sampling profiler, loaded into an unmodified process with
// LD_PRELOAD. Every kPeriodUs of the process's CPU time (ITIMER_PROF, so
// idle threads cost nothing and busy ones are sampled in proportion) the
// running thread records its call stack. At exit the library writes
// sigprof.<pid>.out in the working directory: the process's memory map and
// one line of return addresses per sample, leaf first.
// tools/profile_report.py symbolizes them with addr2line and prints self and
// inclusive shares per function. Usage is in README.md, "Profiling".
//
// The handler only unwinds into a preallocated buffer (glibc backtrace(),
// called once at load so it never loads libgcc from a signal handler);
// every allocation and all I/O happen at load and at exit. Samples beyond
// kMaxSamples are counted as dropped. Linux only; the interrupted
// instruction is taken from the signal context on x86-64 and AArch64.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace {

constexpr long kPeriodUs = 2000;  // 500 Hz per busy core
constexpr int kMaxFrames = 48;
constexpr std::size_t kMaxSamples = 1 << 18;  // pages are touched as used

struct Sample {  // lives in zeroed mmap memory
  std::uint32_t depth;  // stored last, atomically; 0 = slot not filled
  void* pc[kMaxFrames];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_next{0};
std::atomic<bool> g_on{false};

void* interrupted_pc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    void* raw[kMaxFrames + 8];
    const int n = backtrace(raw, kMaxFrames + 8);
    // Skip this handler and the signal trampoline: the stack proper starts
    // at the interrupted instruction.
    const void* pc = interrupted_pc(context);
    int first = 0;
    while (first < n && raw[first] != pc) ++first;
    if (first == n) first = n > 2 ? 2 : n;
    Sample& s = g_samples[slot];
    int depth = 0;
    for (int i = first; i < n && depth < kMaxFrames; ++i) s.pc[depth++] = raw[i];
    __atomic_store_n(&s.depth, static_cast<std::uint32_t>(depth),
                     __ATOMIC_RELEASE);
  }
  errno = saved_errno;
}

__attribute__((constructor)) void start_sampling() {
  void* mem = mmap(nullptr, sizeof(Sample) * kMaxSamples,
                   PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction sa = {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  g_on.store(true);
  itimerval timer = {};
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value.tv_usec = kPeriodUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void write_profile() {
  if (!g_on.exchange(false)) return;
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof path, "sigprof.%d.out", static_cast<int>(getpid()));
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  const std::size_t taken = g_next.load();
  const std::size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(out, "# sigprof sampler\nperiod_us %ld\ndropped %zu\nmaps\n",
               kPeriodUs, taken - kept);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fputs(line, out);
    std::fclose(maps);
  }
  std::fputs("samples\n", out);
  std::size_t written = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    const std::uint32_t depth = __atomic_load_n(&s.depth, __ATOMIC_ACQUIRE);
    if (depth == 0) continue;
    for (std::uint32_t f = 0; f < depth; ++f)
      std::fprintf(out, f == 0 ? "%p" : " %p", s.pc[f]);
    std::fputc('\n', out);
    ++written;
  }
  std::fclose(out);
  std::fprintf(stderr, "sigprof: %zu samples in %s\n", written, path);
}

}  // namespace

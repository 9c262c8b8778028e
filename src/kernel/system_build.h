// Building and booting complete systems: kernel + user processes + disk.
//
// The host side plays boot firmware and, for traced runs, the analysis
// program's transport: it compiles and links the kernel and the workload
// (original and instrumented variants), chooses physical frames for every
// user page according to the page-mapping policy (paper §4.2), writes the
// boot parameter block, preloads the images ("warmed" memory, like the
// paper's warmed buffer cache), builds the disk image for the flat
// filesystem, and services HOSTCALL drains of the in-kernel trace buffer.
#ifndef WRLTRACE_KERNEL_SYSTEM_BUILD_H_
#define WRLTRACE_KERNEL_SYSTEM_BUILD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "epoxie/epoxie.h"
#include "kernel/kernel_config.h"
#include "mach/machine.h"
#include "obj/object_file.h"
#include "stats/events.h"
#include "stats/stats.h"
#include "trace/parser.h"

namespace wrl {

enum class Personality : uint32_t { kUltrix = 0, kMach = 1 };
enum class PagePolicy : uint32_t { kLinear = 0, kScrambled = 1 };

struct DiskFile {
  std::string name;  // Max 23 chars.
  std::vector<uint8_t> content;
  // Extra zero-filled capacity after the content (for writable files).
  uint32_t extra_capacity = 0;
};

struct SystemConfig {
  Personality personality = Personality::kUltrix;
  bool tracing = false;
  // Clock period in cycles.  Traced systems scale this by the dilation
  // factor (paper §4.1: interrupts at 1/15th the standard rate).
  uint32_t clock_period = 200000;
  PagePolicy policy = PagePolicy::kLinear;
  uint32_t policy_mult = 9;  // Odd multiplier for the scrambled permutation.
  uint32_t trace_buf_bytes = 8u << 20;
  uint32_t analysis_cycles_per_word = 20;
  // Liveness-driven scavenging in epoxie (header `sw ra` elision, shadow
  // windows through dead scratch registers).  The reconstructed reference
  // stream and every prediction are bit-identical either way; only the
  // instrumented text growth (and thus dilation) changes.
  bool scavenge = true;
  // The workload program (defines `main`).  Under Mach a UNIX-server
  // process is added automatically as pid 2.
  std::string program_source;
  std::string program_name = "workload";
  std::vector<DiskFile> files;
  uint32_t heap_bytes = 8u << 20;  // Heap limit past bss.
  DiskConfig disk;
  // Simulation fast-path layers for the underlying machine (architectural
  // results are identical for any setting; see FastPathConfig).
  FastPathConfig fastpath;
  // Optional timeline: trace drains (mode switches) become instant events.
  EventRecorder* events = nullptr;
};

// One program image built by the system's recipe: the original link and,
// when instrumented, the epoxie link and the table that maps its block keys
// back to original addresses.
struct ProgramImage {
  // The address space reconstructed trace references and symbols live in.
  Executable orig;
  // The image the machine loads: the instrumented link, or `orig` untraced.
  Executable exe;
  TraceInfoTable table;      // Empty when untraced.
  double text_growth = 1.0;  // Epoxie text growth over the instrumented objects.
  uint64_t elided_ra_saves = 0;
  uint64_t scavenged_windows = 0;
};

// The image recipes: assemble, instrument every traced object with `epoxie`
// (none = untraced), link the original and the instrumented image, and fill
// the trace table.  The kernel links at kseg0 with the trace support
// routines (untraced) and its vectors at fixed offsets; a user program links
// with the syscall library (UserLibAsm) at kUserTextBase, and its
// instrumented image at kUserTracedTextBase keeps the original data base
// (epoxie mode adds no data, so every data address matches the original;
// the pixie baseline appends its translation table to data).
ProgramImage BuildKernelImage(const std::optional<EpoxieConfig>& epoxie);
ProgramImage BuildUserImage(const std::string& name, const std::string& source,
                            const std::optional<EpoxieConfig>& epoxie);

// Where a user process lives in physical memory: one frame region split into
// slices (data+heap, stack, trace buffer + bookkeeping page, text).  Frame =
// region base + slice base + (vpn - slice vpn0), permuted within the slice
// under the scrambled policy.
struct ProcLayout {
  uint32_t region_base_page = 0;
  uint32_t region_pages = 0;
  uint32_t data_slice_page = 0;  // Within the region.
  uint32_t data_vpn0 = 0;
  uint32_t stack_slice_page = 0;
  uint32_t stack_vpn0 = 0;
  uint32_t trace_slice_page = 0;
  uint32_t trace_vpn0 = 0;
  uint32_t text_slice_page = 0;
  uint32_t text_vpn0 = 0;
  uint32_t data_slice_pages = 0;
};

// One address space of a system: the kernel or one user process, with the
// images, trace table and text growth its recipe built.
struct AddressSpace : ProgramImage {
  uint8_t pid = kKernelPid;
  // "kernel", "workload" or "server": names its system.epoxie.* gauge.
  std::string role;
  // The program name ("kernel" for the kernel): the profiler's space name.
  std::string name;
  ProcLayout layout;  // User spaces only.
};

// Everything known about one bootable instance.
class SystemInstance {
 public:
  SystemInstance() = default;

  Machine& machine() { return *machine_; }
  // The address spaces in pid order: the kernel (kKernelPid), the workload
  // (pid 1) and, under Mach, the UNIX server (pid 2).  user_spaces() is the
  // same list without the kernel.
  const std::vector<AddressSpace>& spaces() const { return spaces_; }
  std::span<const AddressSpace> user_spaces() const {
    return std::span<const AddressSpace>(spaces_).subspan(1);
  }
  // Views of single spaces.  For untraced systems kernel_exe() is
  // kernel_orig().
  const Executable& kernel_exe() const { return spaces_[0].exe; }
  const Executable& kernel_orig() const { return spaces_[0].orig; }
  const Executable& workload_orig() const { return spaces_[1].orig; }
  const Executable& server_orig() const { return spaces_.at(2).orig; }
  // Runs to halt; services trace drains along the way for traced systems.
  RunResult Run(uint64_t max_instructions);

  // ---- Results ----
  std::string ConsoleOutput() const;
  // Kernel-written stats block fields.
  uint32_t StatsWord(uint32_t offset) const;
  uint64_t UtlbMissCount() const { return StatsWord(4); }
  uint64_t TlbDropins() const { return StatsWord(8); }
  uint64_t KtlbRefills() const { return StatsWord(12); }
  uint64_t ContextSwitches() const { return StatsWord(20); }
  uint64_t AnalysisSwitches() const { return StatsWord(28); }
  // Per-pid cycles between first schedule and exit.
  uint64_t ProcessCycles(uint32_t pid) const;
  uint32_t ProcessExitCode(uint32_t pid) const;

  // ---- Tracing ----
  // Registers the consumer of raw trace words; called for every drain
  // (mode switch) and once at halt.  Only meaningful when tracing.
  void SetTraceSink(std::function<void(const uint32_t*, size_t)> sink) {
    trace_sink_ = std::move(sink);
  }
  const TraceInfoTable& kernel_table() const { return spaces_[0].table; }
  const TraceInfoTable& user_table() const { return spaces_[1].table; }
  const TraceInfoTable& server_table() const { return spaces_.at(2).table; }
  // A trace parser keyed by every space's trace table; this instance must
  // outlive it.
  TraceParser MakeParser() const;
  uint64_t trace_words_drained() const { return trace_words_drained_; }

  // The page-mapping function the simulator should use for prediction
  // (paper §4.2: either implement the policy or extract the map).
  // `mult_override` substitutes a different permutation multiplier — used to
  // model the unpredictability of Mach's random mapping policy.
  uint32_t TranslateUserPage(uint32_t pid, uint32_t vpn, uint32_t mult_override = 0) const;
  std::function<uint32_t(uint32_t, uint32_t)> PageMap(uint32_t mult_override = 0) const {
    return [this, mult_override](uint32_t pid, uint32_t vpn) {
      return TranslateUserPage(pid, vpn, mult_override);
    };
  }

  // Idle-loop text range of this kernel build (for machine-side counters).
  std::pair<uint32_t, uint32_t> IdleRange() const;

  // ---- Observability ----
  // Binds this instance's counters into `registry` under `prefix`: the
  // machine (and its memory system), the kernel stats-block words as
  // gauges, the trace transport (drain-size histogram, buffer fill
  // levels), and the epoxie text-dilation ratio of every space.  The
  // instance must outlive snapshots of the registry.
  void RegisterStats(StatsRegistry& registry, const std::string& prefix = "system.");

 private:
  friend std::unique_ptr<SystemInstance> BuildSystem(const SystemConfig& config);

  void AddSpace(uint8_t pid, std::string role, std::string name, ProgramImage image);
  void DrainTrace();

  SystemConfig config_;
  std::unique_ptr<Machine> machine_;
  // spaces_[0] is the kernel and spaces_[pid] user process `pid`, so the
  // per-reference page map finds a layout by direct index.
  std::vector<AddressSpace> spaces_;
  std::function<void(const uint32_t*, size_t)> trace_sink_;
  uint32_t ktrace_ptr_addr_ = 0;  // Phys address of the kernel's ktrace_ptr.
  uint32_t ktrace_base_ = 0;      // Phys address of the buffer.
  uint64_t trace_words_drained_ = 0;
  uint64_t last_drain_words_ = 0;
  uint64_t trace_drains_ = 0;
  Histogram drain_words_hist_;   // Buffer fill level (words) at each drain.
  // Scavenging outcome summed over every space (zero when untraced or
  // SystemConfig::scavenge is off).
  uint64_t elided_ra_saves_ = 0;
  uint64_t scavenged_windows_ = 0;
};

// Compiles, links, loads, and prepares a bootable system.  (Heap-allocated:
// the machine's host-call handler holds a pointer to the instance.)
std::unique_ptr<SystemInstance> BuildSystem(const SystemConfig& config);

// The user-side syscall wrapper library every workload links against.
std::string UserLibAsm();
// The Mach UNIX-server program (user-level filesystem over device I/O).
std::string ServerAsm();

// Writes the flat-filesystem directory and file contents into a disk image
// in place.  The image must read as zero, as a fresh Disk's does: free space
// and each file's extra capacity are left untouched.
void WriteDiskImage(const std::vector<DiskFile>& files, PhysMem& image);

}  // namespace wrl

#endif  // WRLTRACE_KERNEL_SYSTEM_BUILD_H_

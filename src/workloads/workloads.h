// The twelve experimental workloads of the paper's Table 1, rebuilt as DS32
// programs with the characteristic structure of the originals: the same mix
// of file I/O, working-set size, instruction mix, and run length — the
// properties the validation methodology actually exercises.  (The SPEC-era
// sources themselves are a gated dependency; DESIGN.md §2 records the
// substitution.)
//
//   sed       stream editing: 3 passes of byte-level substitution over 17K
//   egrep     pattern search: 3 scans of a 27K file with a small automaton
//   yacc      LR table walking over an 11K token stream
//   gcc       compiler phases: lex, tree build (heap), emit; largest text
//   compress  LZW-style hash compression of a 100K file, then decompression
//   espresso  bitset cube minimization over a 30K input
//   lisp      8-queens by recursive backtracking over cons cells
//   eqntott   truth-table generation: ~2MB working set, TLB-hostile
//   fpppp     long basic blocks of multiply/divide chains (fp-intensive)
//   doduc     Monte-Carlo simulation: RNG, branchy state machine, mult/div
//   liv       Livermore-loop array kernels: write-buffer pressure
//   tomcatv   2D mesh sweeps, the longest-running workload
#ifndef WRLTRACE_WORKLOADS_WORKLOADS_H_
#define WRLTRACE_WORKLOADS_WORKLOADS_H_

#include <string>
#include <vector>

#include "kernel/system_build.h"

namespace wrl {

struct WorkloadSpec {
  std::string name;
  std::string description;   // Table 1's description column.
  std::string source;        // DS32 assembly defining `main`.
  std::vector<DiskFile> files;
  bool fp_intensive = false;  // Table 1 groups the bottom four as FP.
};

// Upper bound on a paper workload's scale.
constexpr double kMaxWorkloadScale = 16.0;

// Scale 1.0 reproduces the default sizes above; smaller values shrink the
// workloads proportionally (used by quick tests).  Throws wrl::Error
// naming the scale unless it is finite and in [0, kMaxWorkloadScale].
std::vector<WorkloadSpec> PaperWorkloads(double scale = 1.0);

// A single workload by name (throws wrl::Error if unknown).
WorkloadSpec PaperWorkload(const std::string& name, double scale = 1.0);

}  // namespace wrl

#endif  // WRLTRACE_WORKLOADS_WORKLOADS_H_

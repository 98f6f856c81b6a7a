// Reference results for the twenty XMark queries, computed by the
// independent tree-walking interpreter (src/ref) over the normalized
// query with insert_unordered = false — never by the compiled pipeline
// the benchmark measures.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// Rendered result items per XMark query, in XMarkQueries() order.
using ReferenceItems = std::vector<std::vector<std::string>>;

// Computes the reference for `doc` on `threads` threads, or loads it from
// `cache_dir` when an earlier run of the same binary computed it for the
// same document (*from_cache tells which). `probe_doc` is a small
// document on which the Q9 reformulation below is checked against the
// original Q9 text before it is trusted on `doc`.
exrquy::Status ComputeReference(const std::string& doc,
                                const std::string& probe_doc,
                                const std::string& cache_dir, int threads,
                                ReferenceItems* out, bool* from_cache);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

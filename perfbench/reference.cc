#include "reference.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <thread>

#include "api/session.h"
#include "ref/interp.h"
#include "xmark/queries.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace perfbench {
namespace {

using exrquy::Status;

// The interpreter evaluates Q9's inner `let $n` (a scan of the European
// items) for every person x closed auction pair before the `where`
// filters it: people x auctions x items, 13.7 s at scale 0.016 and hours
// at 0.1. This text filters first and binds $n only for the matching
// auctions. The two are equivalent because $n is side-effect free and
// the `where` does not read it; ComputeReference re-checks the
// equivalence on a small document every time it runs.
constexpr const char* kQ9Reference =
    R"(let $auction := doc("auction.xml")
for $p in $auction/site/people/person
let $a := for $t in $auction/site/closed_auctions/closed_auction
          where $p/@id = $t/buyer/@person
          return let $n := for $t2 in $auction/site/regions/europe/item
                           where $t/itemref/@item = $t2/@id
                           return $t2
                 return <item>{ $n/name/text() }</item>
return <person name="{ $p/name/text() }">{ $a }</person>)";

const std::string& ReferenceText(size_t q) {
  static const std::string q9 = kQ9Reference;
  const exrquy::XMarkQuery& query = exrquy::XMarkQueries()[q];
  return query.name == "Q9" ? q9 : query.text;
}

// Evaluates `text` with the reference interpreter against the document
// loaded in `session`, then rolls the store and pool back.
Status RunReference(exrquy::Session* session, const std::string& text,
                    std::vector<std::string>* items) {
  size_t nodes = session->store().node_count();
  size_t fragments = session->store().fragment_count();
  size_t strings = session->strings().size();
  EXRQUY_ASSIGN_OR_RETURN(exrquy::Query parsed, exrquy::ParseQuery(text));
  exrquy::NormalizeOptions norm;
  norm.insert_unordered = false;
  EXRQUY_RETURN_IF_ERROR(exrquy::Normalize(&parsed, norm));
  exrquy::RefInterpreter interp(&session->store(), &session->strings(),
                                session->documents());
  EXRQUY_ASSIGN_OR_RETURN(std::vector<exrquy::Value> values,
                          interp.Eval(*parsed.body));
  *items = interp.Render(values);
  session->store().TruncateTo(nodes, fragments);
  session->strings().TruncateTo(strings);
  return Status::Ok();
}

uint64_t Fnv(std::string_view bytes, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ULL;
  return h;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The cache key covers the running binary (so a rebuilt interpreter,
// generator or query set never reads stale results), the document and
// the reference texts.
std::string CachePath(const std::string& cache_dir, const std::string& doc) {
  uint64_t h = Fnv(ReadFile("/proc/self/exe"));
  h = Fnv(doc, h);
  for (size_t q = 0; q < exrquy::XMarkQueries().size(); ++q) {
    h = Fnv(ReferenceText(q), h);
  }
  char name[40];
  std::snprintf(name, sizeof(name), "ref-%016llx.bin",
                static_cast<unsigned long long>(h));
  return cache_dir + "/" + name;
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool GetU64(std::string_view* in, uint64_t* v) {
  if (in->size() < sizeof(*v)) return false;
  std::memcpy(v, in->data(), sizeof(*v));
  in->remove_prefix(sizeof(*v));
  return true;
}

bool LoadCache(const std::string& path, size_t queries, ReferenceItems* out) {
  std::string bytes = ReadFile(path);
  std::string_view in = bytes;
  uint64_t n = 0;
  if (!GetU64(&in, &n) || n != queries) return false;
  ReferenceItems loaded(queries);
  for (auto& items : loaded) {
    uint64_t count = 0;
    if (!GetU64(&in, &count) || count > in.size()) return false;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t len = 0;
      if (!GetU64(&in, &len) || len > in.size()) return false;
      items.emplace_back(in.substr(0, len));
      in.remove_prefix(len);
    }
  }
  if (!in.empty()) return false;
  *out = std::move(loaded);
  return true;
}

void StoreCache(const std::string& path, const ReferenceItems& ref) {
  std::string bytes;
  PutU64(&bytes, ref.size());
  for (const auto& items : ref) {
    PutU64(&bytes, items.size());
    for (const std::string& item : items) {
      PutU64(&bytes, item.size());
      bytes += item;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary);
    out << bytes;
    if (!out) return;  // the cache is an optimization only
  }
  std::filesystem::rename(tmp, path, ec);
}

Status CheckQ9Reformulation(const std::string& probe_doc) {
  exrquy::Session session;
  EXRQUY_RETURN_IF_ERROR(session.LoadDocument("auction.xml", probe_doc));
  std::vector<std::string> original;
  std::vector<std::string> reformulated;
  EXRQUY_RETURN_IF_ERROR(RunReference(
      &session, exrquy::XMarkQueryText("Q9"), &original));
  EXRQUY_RETURN_IF_ERROR(RunReference(&session, kQ9Reference, &reformulated));
  if (original != reformulated) {
    return exrquy::Internal(
        "the Q9 reference reformulation disagrees with Q9 on the probe "
        "document");
  }
  return Status::Ok();
}

}  // namespace

Status ComputeReference(const std::string& doc, const std::string& probe_doc,
                        const std::string& cache_dir, int threads,
                        ReferenceItems* out, bool* from_cache) {
  const size_t queries = exrquy::XMarkQueries().size();
  std::string cache = CachePath(cache_dir, doc);
  *from_cache = LoadCache(cache, queries, out);
  if (*from_cache) return Status::Ok();

  EXRQUY_RETURN_IF_ERROR(CheckQ9Reformulation(probe_doc));

  // The quadratic joins first, so the longest interpretations overlap.
  std::vector<size_t> order;
  for (const char* name : {"Q12", "Q11", "Q8", "Q9", "Q10"}) {
    for (size_t q = 0; q < queries; ++q) {
      if (exrquy::XMarkQueries()[q].name == name) order.push_back(q);
    }
  }
  for (size_t q = 0; q < queries; ++q) {
    if (std::find(order.begin(), order.end(), q) == order.end()) {
      order.push_back(q);
    }
  }

  ReferenceItems ref(queries);
  std::atomic<size_t> next{0};
  std::mutex mu;
  Status first_error = Status::Ok();  // guarded by mu
  auto work = [&] {
    exrquy::Session session;
    Status st = session.LoadDocument("auction.xml", doc);
    for (size_t i = next++; st.ok() && i < order.size(); i = next++) {
      size_t q = order[i];
      st = RunReference(&session, ReferenceText(q), &ref[q]);
    }
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = st;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  EXRQUY_RETURN_IF_ERROR(first_error);

  StoreCache(cache, ref);
  *out = std::move(ref);
  return Status::Ok();
}

}  // namespace perfbench

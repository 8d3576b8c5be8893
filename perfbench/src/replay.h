// Offline replay of what a traced window captured.
//
// After the resolver threads have stopped, the datagrams and queries they
// handled are pushed through the public wire, name and name-tree functions
// in the order a resolver calls them (decode, name decode, lookup, encode),
// one timed call at a time. Each layer's cost then comes from the layer's
// own code, and what the replay cannot account for in the live receive time
// is reported as unattributed.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "corpus.h"
#include "ins/nametree/sharded_name_tree.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

struct ResolverReplay {
  // Per data datagram, replayed: DecodeMessage, the memoizing NameDecoder on
  // the destination, and the store lookup; plus the encode of the datagrams
  // the resolver sent while handling data, per data datagram.
  double decode_ns = 0;
  double name_decode_ns = 0;
  double lookup_ns = 0;
  double encode_ns = 0;
  size_t data_datagrams = 0;  // in the capture
  // Whether the store ran the tree walk for exactly the wildcard queries, so
  // the per-plan split of the lookup replay is the store's own.
  bool plan_split_exact = true;
  // 1 - (replayed stages + live send time) / live receive time, over the
  // resolver's data datagrams; 0 when it handled none.
  double unattributed_frac = 0;
};

struct ReplayReport {
  // By message kind, both resolvers pooled; "all" pools the kinds.
  std::map<std::string, Dist> decode_ns;
  std::map<std::string, Dist> encode_ns;
  Dist parse_ns;                          // ParseNameSpecifier on captured names
  std::map<std::string, Dist> lookup_ns;  // at a, by plan ("index", "fallback", "all")
  // Upsert on a scratch store: the captured writes, or, for a window without
  // writes, the set-up advertisements that populate the store.
  Dist upsert_ns;
  bool upsert_from_writes = false;
  ResolverReplay a, b;
};

// `stable` are the names the scratch store is populated with before the
// captured writes are replayed onto it.
ReplayReport Replay(const SpanRecorder& a, const ins::ShardedNameTree& a_store,
                    const SpanRecorder& b, const ins::ShardedNameTree& b_store,
                    const std::vector<Record>& stable);

// Short name of a message kind ("data", "advertisement", ...).
std::string KindName(uint8_t kind);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
